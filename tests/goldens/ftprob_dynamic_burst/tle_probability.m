% generated by mbsa 0.1.0; do not edit
function p = tle_probability(p_burst, p_f1, p_f2)
  t0 = 1 - p_burst;
  t1 = p_f1 * p_f2;
  t2 = t0 * t1;
  t3 = p_burst + t2;
  p = t3;
end
