// vdlint fixture: a standard-library distribution — must fire
// vdl-std-distribution.
#include <random>

template <typename Engine>
double library_defined_draw(Engine& engine) {
  return std::normal_distribution<double>(0.0, 1.0)(engine);
}
