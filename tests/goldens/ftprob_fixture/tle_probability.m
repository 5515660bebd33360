% generated by mbsa 0.1.0; do not edit
function p = tle_probability(p_G1_Off, p_G2_Off, p_S1_Off, p_S2_Off)
  t0 = 1 - p_G2_Off;
  t1 = t0 * p_S2_Off;
  t2 = p_G2_Off + t1;
  t3 = p_G1_Off * t2;
  t4 = 1 - p_G1_Off;
  t5 = p_G2_Off * p_S1_Off;
  t6 = p_S1_Off * p_S2_Off;
  t7 = t0 * t6;
  t8 = t5 + t7;
  t9 = t4 * t8;
  t10 = t3 + t9;
  p = t10;
end
