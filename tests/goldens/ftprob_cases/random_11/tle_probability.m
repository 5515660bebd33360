% generated by mbsa 0.1.0; do not edit
function p = tle_probability(p_e00, p_e02, p_e04, p_e05, p_g0, p_g1)
  t0 = p_g1 * p_e00;
  t1 = 1 - p_g1;
  t2 = p_e02 * p_e04;
  t3 = p_e00 * t2;
  t4 = t1 * t3;
  t5 = t0 + t4;
  t6 = p_g0 * t5;
  t7 = 1 - p_g0;
  t8 = p_e00 * p_e05;
  t9 = p_g1 * t8;
  t10 = p_e04 * p_e05;
  t11 = p_e02 * t10;
  t12 = p_e00 * t11;
  t13 = t1 * t12;
  t14 = t9 + t13;
  t15 = t7 * t14;
  t16 = t6 + t15;
  p = t16;
end
