% generated by mbsa 0.1.0; do not edit
function p = tle_probability(p_e00, p_e05, p_e08, p_e10)
  t0 = p_e08 * p_e10;
  t1 = p_e05 * t0;
  t2 = p_e00 * t1;
  p = t2;
end
