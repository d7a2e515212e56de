#include "finance/binomial_batch.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/error.h"

namespace binopt::finance {

namespace {

/// -1 automatic, 0 forced scalar, 1 forced vector.
std::atomic<int> g_simd_override{-1};

bool env_disables_simd() {
  const char* env = std::getenv("BINOPT_SIMD");
  if (env == nullptr) return false;
  const std::string value(env);
  return value == "off" || value == "0" || value == "scalar";
}

}  // namespace

BatchPricer::BatchPricer(std::size_t steps, ParamConvention convention)
    : steps_(steps), convention_(convention) {
  BINOPT_REQUIRE(steps_ >= 1, "lattice needs at least one step");
  // Size every scratch lane up front: which path runs first (scalar vs
  // 4-wide) depends on the first batch's shape, and the service's
  // zero-allocation guarantee must not hinge on that — after construction
  // price_into never touches the heap.
  scratch_assets_.resize(steps_ + 1);
  scratch_values_.resize(steps_ + 1);
  lane_assets_.resize(4 * (steps_ + 1));
  lane_values_.resize(4 * (steps_ + 1));
}

bool BatchPricer::simd_available() { return detail::cpu_has_avx2(); }

bool BatchPricer::simd_enabled() {
  const int forced = g_simd_override.load(std::memory_order_relaxed);
  if (forced == 0) return false;
  if (forced == 1) {
    BINOPT_REQUIRE(simd_available(),
                   "BINOPT SIMD forced on but the CPU has no AVX2");
    return true;
  }
  // Automatic: the env escape hatch wins, then the CPU decides. The env
  // is re-read per call so tests can flip it; getenv is cheap relative to
  // one lattice sweep.
  return !env_disables_simd() && simd_available();
}

void BatchPricer::set_simd_override(int mode) {
  BINOPT_REQUIRE(mode >= -1 && mode <= 1,
                 "simd override must be -1 (auto), 0 (scalar) or 1 "
                 "(vector), got ", mode);
  g_simd_override.store(mode, std::memory_order_relaxed);
}

void BatchPricer::price_into(const OptionSpec* specs, std::size_t n,
                             double* out) {
  BINOPT_REQUIRE(specs != nullptr || n == 0, "null spec array");
  BINOPT_REQUIRE(out != nullptr || n == 0, "null output array");
  if (!simd_enabled()) {
    for (std::size_t i = 0; i < n; ++i) price_scalar(specs[i], out + i);
    return;
  }
  const std::size_t full = n - n % 4;
  for (std::size_t i = 0; i < full; i += 4) price_group4(specs + i, out + i);
  if (full == n) return;
  // The 1-3 option tail is one padded sweep: spare lanes repeat the last
  // real spec, and every AVX2 op is lane-wise, so a pad lane never
  // touches a real lane's bits. Only the real lanes are copied back.
  OptionSpec pad[4];
  double pad_out[4];
  for (std::size_t lane = 0; lane < 4; ++lane) {
    pad[lane] = specs[std::min(full + lane, n - 1)];
  }
  price_group4(pad, pad_out);
  std::copy(pad_out, pad_out + (n - full), out + full);
}

void BatchPricer::price_group4(const OptionSpec* specs, double* out4) {
  detail::Lane4 lanes;
  for (std::size_t lane = 0; lane < 4; ++lane) {
    const OptionSpec& spec = specs[lane];
    // Same validation + parameter derivation (and the same exceptions,
    // e.g. p outside (0,1)) as the scalar path, in submission order.
    const LatticeParams lp = LatticeParams::from(spec, steps_, convention_);
    lanes.spot[lane] = spec.spot;
    lanes.strike[lane] = spec.strike;
    lanes.up[lane] = lp.up;
    lanes.down[lane] = lp.down;
    lanes.prob_up[lane] = lp.prob_up;
    lanes.prob_down[lane] = lp.prob_down;
    lanes.discount[lane] = lp.discount;
    lanes.put_mask[lane] =
        spec.type == OptionType::kPut ? ~std::uint64_t{0} : 0;
    lanes.american_mask[lane] =
        spec.style == ExerciseStyle::kAmerican ? ~std::uint64_t{0} : 0;
  }
  detail::price4_avx2(lanes, steps_, lane_assets_.data(),
                      lane_values_.data(), out4);
}

void BatchPricer::price_scalar(const OptionSpec& spec, double* out) {
  // Mirrors BinomialPricer::price operation for operation (iterated-
  // multiplication leaves, rolling-array induction) with reused scratch
  // instead of per-call vectors; the results are bit-identical.
  const LatticeParams lp = LatticeParams::from(spec, steps_, convention_);
  double* assets = scratch_assets_.data();
  double* values = scratch_values_.data();

  double s = spec.spot;
  for (std::size_t i = 0; i < steps_; ++i) s *= lp.down;
  const double up2 = lp.up * lp.up;
  for (std::size_t k = 0; k <= steps_; ++k) {
    assets[k] = s;
    s *= up2;
  }
  for (std::size_t k = 0; k <= steps_; ++k) values[k] = spec.payoff(assets[k]);

  const bool american = spec.style == ExerciseStyle::kAmerican;
  for (std::size_t t = steps_; t-- > 0;) {
    for (std::size_t k = 0; k <= t; ++k) {
      assets[k] = assets[k] * lp.up;
      const double continuation =
          lp.discount *
          (lp.prob_up * values[k + 1] + lp.prob_down * values[k]);
      values[k] = american ? std::max(spec.payoff(assets[k]), continuation)
                           : continuation;
    }
  }
  *out = values[0];
}

}  // namespace binopt::finance
