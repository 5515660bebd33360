% generated by mbsa 0.1.0; do not edit
function p = tle_probability(p_e00, p_e06, p_e07, p_g0)
  t0 = 1 - p_g0;
  t1 = 1 - p_e00;
  t2 = 1 - p_e06;
  t3 = t2 * p_e07;
  t4 = p_e06 + t3;
  t5 = t1 * t4;
  t6 = p_e00 + t5;
  t7 = t0 * t6;
  t8 = p_g0 + t7;
  p = t8;
end
