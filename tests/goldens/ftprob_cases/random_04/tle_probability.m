% generated by mbsa 0.1.0; do not edit
function p = tle_probability(p_e01, p_e03, p_e05)
  t0 = 1 - p_e03;
  t1 = t0 * p_e05;
  t2 = p_e03 + t1;
  t3 = p_e01 * t2;
  t4 = 1 - p_e01;
  t5 = t4 * p_e03;
  t6 = t3 + t5;
  p = t6;
end
