// vdlint fixture: the draw and the string-keyed split come from stats::Rng,
// so vdl-std-distribution stays quiet.
#include <string>

#include "stats/rng.h"

double specified_draw(vdbench::stats::Rng& rng, const std::string& key) {
  return rng.split(key).normal(0.0, 1.0);
}
