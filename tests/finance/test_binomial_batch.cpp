// BatchPricer parity: the vectorized (AVX2) batch front-end must produce
// prices BIT-IDENTICAL to the scalar BinomialPricer for the double path,
// across option types, exercise styles, batch tails (n % 4 != 0), and
// dispatch modes. Also covers the runtime SIMD dispatch knobs
// (set_simd_override, BINOPT_SIMD env) and the padded 4-lane tail: with
// SIMD on, a batch of 1-3 options (or the n % 4 remainder) is one sweep
// whose spare lanes repeat the last real spec.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/accelerator.h"
#include "finance/binomial.h"
#include "finance/binomial_batch.h"
#include "finance/workload.h"

namespace binopt::finance {
namespace {

constexpr std::size_t kSteps = 64;

/// Restores the automatic dispatch mode when a test returns.
struct OverrideGuard {
  ~OverrideGuard() { BatchPricer::set_simd_override(-1); }
};

std::vector<OptionSpec> mixed_batch(std::size_t count) {
  // Calls and puts, American and European, varied moneyness/vol/rate.
  WorkloadConfig config;
  std::vector<OptionSpec> specs = make_random_batch(count, /*seed=*/1234, config);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].type = (i % 2 == 0) ? OptionType::kCall : OptionType::kPut;
    specs[i].style =
        (i % 3 == 0) ? ExerciseStyle::kEuropean : ExerciseStyle::kAmerican;
  }
  return specs;
}

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint64_t got_bits = 0;
    std::uint64_t want_bits = 0;
    std::memcpy(&got_bits, &got[i], sizeof got_bits);
    std::memcpy(&want_bits, &want[i], sizeof want_bits);
    ASSERT_EQ(got_bits, want_bits)
        << "spec " << i << ": batch=" << got[i] << " scalar=" << want[i];
  }
}

std::vector<double> scalar_reference(const std::vector<OptionSpec>& specs) {
  const BinomialPricer pricer(kSteps);
  std::vector<double> out;
  out.reserve(specs.size());
  for (const OptionSpec& spec : specs) out.push_back(pricer.price(spec));
  return out;
}

TEST(BatchPricer, ScalarPathMatchesBinomialPricerBitwise) {
  OverrideGuard guard;
  BatchPricer::set_simd_override(0);  // force the scalar fallback
  const auto specs = mixed_batch(97);  // tail of 1 past the 4-lane groups
  const auto want = scalar_reference(specs);
  BatchPricer batch(kSteps);
  std::vector<double> got(specs.size());
  batch.price_into(specs.data(), specs.size(), got.data());
  expect_bitwise_equal(got, want);
}

TEST(BatchPricer, Avx2PathMatchesBinomialPricerBitwise) {
  if (!BatchPricer::simd_available()) {
    GTEST_SKIP() << "host CPU has no AVX2";
  }
  OverrideGuard guard;
  BatchPricer::set_simd_override(1);  // force the vector kernel
  // 203 = 50 full 4-lane groups + a 3-option tail.
  const auto specs = mixed_batch(203);
  const auto want = scalar_reference(specs);
  BatchPricer batch(kSteps);
  std::vector<double> got(specs.size());
  batch.price_into(specs.data(), specs.size(), got.data());
  expect_bitwise_equal(got, want);
}

TEST(BatchPricer, Avx2MatchesScalarOnCuratedEdgeCases) {
  if (!BatchPricer::simd_available()) {
    GTEST_SKIP() << "host CPU has no AVX2";
  }
  OverrideGuard guard;
  const auto specs = make_smoke_batch();  // deep ITM/OTM, ATM, maturities
  BatchPricer batch(kSteps);
  std::vector<double> vec(specs.size());
  std::vector<double> sca(specs.size());
  BatchPricer::set_simd_override(1);
  batch.price_into(specs.data(), specs.size(), vec.data());
  BatchPricer::set_simd_override(0);
  batch.price_into(specs.data(), specs.size(), sca.data());
  expect_bitwise_equal(vec, sca);
}

TEST(BatchPricer, CurveBatchMatchesPriceBatchBitwise) {
  // Whatever dispatch mode the host resolves to, the paper's canonical
  // 2000-option volatility-curve batch must reproduce price_batch exactly.
  const auto specs = make_curve_batch(500);
  const BinomialPricer reference(kSteps);
  const auto want = reference.price_batch(specs);
  BatchPricer batch(kSteps);
  std::vector<double> got(specs.size());
  batch.price_into(specs.data(), specs.size(), got.data());
  expect_bitwise_equal(got, want);
}

TEST(BatchPricer, OverrideHookControlsDispatch) {
  OverrideGuard guard;
  BatchPricer::set_simd_override(0);
  EXPECT_FALSE(BatchPricer::simd_enabled());
  if (BatchPricer::simd_available()) {
    BatchPricer::set_simd_override(1);
    EXPECT_TRUE(BatchPricer::simd_enabled());
  }
  BatchPricer::set_simd_override(-1);
  // Automatic mode: enabled iff the CPU supports it (no env override in
  // the test environment is assumed for the positive case).
  if (!BatchPricer::simd_available()) {
    EXPECT_FALSE(BatchPricer::simd_enabled());
  }
}

TEST(BatchPricer, EnvKnobDisablesSimd) {
  OverrideGuard guard;
  BatchPricer::set_simd_override(-1);
  ASSERT_EQ(setenv("BINOPT_SIMD", "off", /*overwrite=*/1), 0);
  EXPECT_FALSE(BatchPricer::simd_enabled());
  ASSERT_EQ(setenv("BINOPT_SIMD", "scalar", 1), 0);
  EXPECT_FALSE(BatchPricer::simd_enabled());
  ASSERT_EQ(unsetenv("BINOPT_SIMD"), 0);
  // And pricing still works (scalar fallback) with the knob set.
  ASSERT_EQ(setenv("BINOPT_SIMD", "off", 1), 0);
  const auto specs = mixed_batch(9);
  const auto want = scalar_reference(specs);
  BatchPricer batch(kSteps);
  std::vector<double> got(specs.size());
  batch.price_into(specs.data(), specs.size(), got.data());
  expect_bitwise_equal(got, want);
  ASSERT_EQ(unsetenv("BINOPT_SIMD"), 0);
}

TEST(BatchPricer, HandlesEmptyAndSingleOptionBatches) {
  BatchPricer batch(kSteps);
  batch.price_into(nullptr, 0, nullptr);  // no-op, must not crash
  const auto specs = mixed_batch(1);
  double price = 0.0;
  batch.price_into(specs.data(), 1, &price);
  const BinomialPricer reference(kSteps);
  EXPECT_EQ(price, reference.price(specs[0]));
}

TEST(BatchPricer, ReusedPricerStaysBitExactAcrossCalls) {
  // Scratch reuse across calls of different sizes must not leak state
  // between batches.
  BatchPricer batch(kSteps);
  const auto first = mixed_batch(16);
  const auto second = mixed_batch(7);
  std::vector<double> out1(first.size());
  std::vector<double> out2(second.size());
  batch.price_into(first.data(), first.size(), out1.data());
  batch.price_into(second.data(), second.size(), out2.data());
  expect_bitwise_equal(out1, scalar_reference(first));
  expect_bitwise_equal(out2, scalar_reference(second));
}

TEST(BatchPricer, PaddedTailMatchesBinomialPricerForEveryLengthAndOffset) {
  if (!BatchPricer::simd_available()) {
    GTEST_SKIP() << "host CPU has no AVX2";
  }
  OverrideGuard guard;
  BatchPricer::set_simd_override(1);
  // mixed_batch cycles call/put (i % 2) and European/American (i % 3), so
  // offsets 0..3 put every type x style combination in every lane,
  // padded tail lanes included.
  const auto specs = mixed_batch(12);
  const auto want_all = scalar_reference(specs);
  BatchPricer batch(kSteps);
  for (std::size_t offset = 0; offset < 4; ++offset) {
    for (std::size_t n = 1; n <= 9; ++n) {
      SCOPED_TRACE(::testing::Message() << "offset " << offset << " n " << n);
      std::vector<double> got(n + 1, -1.0);  // one sentinel past the batch
      batch.price_into(specs.data() + offset, n, got.data());
      EXPECT_EQ(got.back(), -1.0) << "a pad lane was written back";
      got.pop_back();
      const std::vector<double> want(want_all.begin() + offset,
                                     want_all.begin() + offset + n);
      expect_bitwise_equal(got, want);
    }
  }
}

/// The message price_into throws for `specs` under the given dispatch
/// mode, or "" if it prices without throwing.
std::string precondition_message(const std::vector<OptionSpec>& specs,
                                 int simd_mode) {
  BatchPricer::set_simd_override(simd_mode);
  BatchPricer batch(kSteps);
  std::vector<double> out(specs.size());
  try {
    batch.price_into(specs.data(), specs.size(), out.data());
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

TEST(BatchPricer, InvalidSpecInThePaddedTailThrowsLikeTheScalarPath) {
  if (!BatchPricer::simd_available()) {
    GTEST_SKIP() << "host CPU has no AVX2";
  }
  OverrideGuard guard;
  for (const std::size_t n : {1U, 2U, 3U, 5U, 6U, 7U}) {
    // Every tail position, including the last real lane the pad copies.
    for (std::size_t bad = n - n % 4; bad < n; ++bad) {
      SCOPED_TRACE(::testing::Message() << "n " << n << " bad " << bad);
      auto specs = mixed_batch(n);
      specs[bad].volatility = -0.2;
      const std::string scalar = precondition_message(specs, 0);
      ASSERT_FALSE(scalar.empty());
      EXPECT_EQ(precondition_message(specs, 1), scalar);
    }
  }
}

TEST(BatchPricer, SinglePrecisionReferenceTargetPricesTailsLikeTheScalarPath) {
  if (!BatchPricer::simd_available()) {
    GTEST_SKIP() << "host CPU has no AVX2";
  }
  OverrideGuard guard;
  BatchPricer::set_simd_override(1);
  core::PricingAccelerator::Config config;
  config.target = core::Target::kCpuReferenceSingle;
  config.steps = kSteps;
  config.compute_rmse = false;
  core::PricingAccelerator accelerator(config);
  const auto specs = mixed_batch(5);
  const auto scalar = scalar_reference(specs);
  for (std::size_t n = 1; n <= 5; ++n) {
    SCOPED_TRACE(::testing::Message() << "n " << n);
    std::vector<double> got(n);
    accelerator.run_prices(specs.data(), n, got.data());
    std::vector<double> want(n);
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = static_cast<float>(scalar[i]);
    }
    expect_bitwise_equal(got, want);
  }
}

}  // namespace
}  // namespace binopt::finance
