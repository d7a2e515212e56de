// Vectorized batch front-end for the CRR reference pricer (DESIGN.md §2.6).
//
// The paper's Xeon X5450 baseline — and the service's degrade-to-cpu
// route — ran the backward induction one option at a time in scalar
// double. This pricer processes four options per instruction with AVX2:
// the lattice loop is identical, but each arithmetic op acts on a lane
// per option (structure-of-arrays, lane-interleaved scratch), so the
// per-option operation SEQUENCE is exactly the scalar pricer's.
//
// Bitwise parity, not just tolerance: AVX2 vmulpd/vaddpd/vmaxpd are the
// same correctly-rounded IEEE-754 operations as their scalar SSE2
// counterparts, the kernel never uses FMA (the scalar build can't emit
// one either — baseline x86-64 has no FMA), and call/put and
// American/European lanes are handled by bit-preserving blends. The
// double path is therefore bit-identical to BinomialPricer::price for
// every spec (asserted by tests/finance/test_binomial_batch.cpp), which
// is what lets the PricingService keep its bit-exact parity gates while
// the CPU backend runs 4-wide.
//
// Dispatch is resolved at runtime: AVX2 present -> vector kernel, else
// (or with BINOPT_SIMD=off, or via set_simd_override) the scalar fallback
// — the same code shape with reused scratch, so the fallback allocates
// nothing in steady state either. With SIMD on, a launch of 1-4 options
// costs one 4-lane sweep; the scalar path runs only with SIMD off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "finance/binomial.h"
#include "finance/option.h"

namespace binopt::finance {

namespace detail {

/// Per-lane constants for one 4-option AVX2 group (structure of arrays).
/// Masks are all-ones / all-zeros bit patterns consumed by vblendvpd.
struct Lane4 {
  double spot[4];
  double strike[4];
  double up[4];
  double down[4];
  double prob_up[4];
  double prob_down[4];
  double discount[4];
  std::uint64_t put_mask[4];
  std::uint64_t american_mask[4];
};

/// AVX2 kernel (binomial_simd.cpp, compiled with -mavx2): prices 4
/// options through one lattice sweep. `assets`/`values` are
/// lane-interleaved scratch of 4*(steps+1) doubles. Never call without
/// simd_available().
void price4_avx2(const Lane4& lanes, std::size_t steps, double* assets,
                 double* values, double* out4);

/// True when the running CPU supports the AVX2 kernel.
[[nodiscard]] bool cpu_has_avx2();

}  // namespace detail

class BatchPricer {
public:
  explicit BatchPricer(std::size_t steps,
                       ParamConvention convention =
                           ParamConvention::kStandardCrr);

  [[nodiscard]] std::size_t steps() const { return steps_; }

  /// Prices specs[0..n) into out[0..n); every price is bit-identical to
  /// BinomialPricer(steps).price(specs[i]). With SIMD on, the n % 4 tail
  /// is one 4-lane sweep padded with copies of the last spec; specs are
  /// validated in submission order on either path. Scratch is reused
  /// across calls, so steady-state invocations perform no heap allocation.
  void price_into(const OptionSpec* specs, std::size_t n, double* out);

  /// AVX2 present on this CPU.
  [[nodiscard]] static bool simd_available();
  /// What price_into will actually use: available, not disabled by
  /// BINOPT_SIMD=off|0|scalar, and not overridden by set_simd_override.
  [[nodiscard]] static bool simd_enabled();
  /// Test/bench hook: -1 = automatic (env + CPU), 0 = force scalar,
  /// 1 = force vector (throws later if the CPU can't).
  static void set_simd_override(int mode);

private:
  void price_group4(const OptionSpec* specs, double* out4);
  void price_scalar(const OptionSpec& spec, double* out);

  std::size_t steps_;
  ParamConvention convention_;
  std::vector<double> lane_assets_;   ///< 4*(steps+1), lane-interleaved
  std::vector<double> lane_values_;
  std::vector<double> scratch_assets_;  ///< scalar-path scratch
  std::vector<double> scratch_values_;
};

}  // namespace binopt::finance
