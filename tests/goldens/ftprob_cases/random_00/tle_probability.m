% generated by mbsa 0.1.0; do not edit
function p = tle_probability()
  p = 0;
end
