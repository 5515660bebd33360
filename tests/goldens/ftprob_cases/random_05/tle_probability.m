% generated by mbsa 0.1.0; do not edit
function p = tle_probability(p_e00, p_e01, p_e02, p_e04, p_e05, p_g0, p_g1, p_g2)
  t0 = 1 - p_g0;
  t1 = 1 - p_g2;
  t2 = t1 * p_e02;
  t3 = p_g2 + t2;
  t4 = t0 * t3;
  t5 = p_g0 + t4;
  p = t5;
end
