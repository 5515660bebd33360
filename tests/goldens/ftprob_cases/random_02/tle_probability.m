% generated by mbsa 0.1.0; do not edit
function p = tle_probability(p_e01, p_e02, p_e03, p_e04)
  t0 = p_e02 * p_e04;
  t1 = 1 - p_e02;
  t2 = p_e03 * p_e04;
  t3 = t1 * t2;
  t4 = t0 + t3;
  t5 = p_e01 * t4;
  t6 = 1 - p_e01;
  t7 = t6 * t2;
  t8 = t5 + t7;
  p = t8;
end
