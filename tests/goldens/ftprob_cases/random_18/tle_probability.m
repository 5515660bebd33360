% generated by mbsa 0.1.0; do not edit
function p = tle_probability(p_e00, p_e01)
  t0 = 1 - p_e00;
  t1 = t0 * p_e01;
  t2 = p_e00 + t1;
  p = t2;
end
