// Unit coverage for the overload layer's pure pieces (DESIGN.md §2.10):
// the deadline comparison every enforcement site shares, EDF ordering,
// the strict knob parsers (env + CLI), OverloadConfig validation, the
// deterministic priority mix, and the CoDel-style AIMD watermark
// controller driven with an explicit clock. Service-level behaviour
// (shedding, eager drops, brownout) lives in test_pricing_service.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "core/service/overload.h"

namespace binopt::core::service {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

// --- deadline semantics -------------------------------------------------

// Pinned edge: a deadline exactly equal to the observation instant is
// STILL LIVE. This is what makes a zero-timeout submission admissible at
// its own admission stamp (it expires one tick later), and it must agree
// across all four enforcement sites, which share this predicate.
TEST(DeadlineExpired, EqualInstantIsLive) {
  const auto now = Clock::now();
  EXPECT_FALSE(deadline_expired(now, now));
  EXPECT_FALSE(deadline_expired(now, now + 1ns));
  EXPECT_TRUE(deadline_expired(now, now - 1ns));
}

// --- EDF ordering -------------------------------------------------------

TEST(EdfOrdering, DeadlinedRequestsComeFirst) {
  const auto now = Clock::now();
  const EdfKey with{true, now + 1ms, now};
  const EdfKey without{false, {}, now - 1h};  // much older admission
  EXPECT_TRUE(edf_before(with, without));
  EXPECT_FALSE(edf_before(without, with));
}

TEST(EdfOrdering, EarlierDeadlineWins) {
  const auto now = Clock::now();
  const EdfKey soon{true, now + 1ms, now};
  const EdfKey later{true, now + 2ms, now - 1s};  // older but later deadline
  EXPECT_TRUE(edf_before(soon, later));
  EXPECT_FALSE(edf_before(later, soon));
}

TEST(EdfOrdering, TiesAndUndeadlinedFallBackToAdmissionOrder) {
  const auto now = Clock::now();
  const EdfKey first{true, now + 1ms, now};
  const EdfKey second{true, now + 1ms, now + 1us};
  EXPECT_TRUE(edf_before(first, second));
  EXPECT_FALSE(edf_before(second, first));
  // No deadlines anywhere: EDF degrades to exactly FIFO.
  const EdfKey fifo_a{false, {}, now};
  const EdfKey fifo_b{false, {}, now + 1us};
  EXPECT_TRUE(edf_before(fifo_a, fifo_b));
  EXPECT_FALSE(edf_before(fifo_b, fifo_a));
}

// --- knob parsers -------------------------------------------------------

TEST(ParseShedWatermark, AcceptsFractionsInZeroOneRightClosed) {
  EXPECT_DOUBLE_EQ(parse_shed_watermark("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(parse_shed_watermark("1"), 1.0);
  EXPECT_DOUBLE_EQ(parse_shed_watermark("0.0625"), 0.0625);
}

TEST(ParseShedWatermark, RejectsEverythingElse) {
  EXPECT_THROW((void)parse_shed_watermark("0"), PreconditionError);
  EXPECT_THROW((void)parse_shed_watermark("-0.5"), PreconditionError);
  EXPECT_THROW((void)parse_shed_watermark("1.5"), PreconditionError);
  EXPECT_THROW((void)parse_shed_watermark("0.5x"), PreconditionError);
  EXPECT_THROW((void)parse_shed_watermark(""), PreconditionError);
  EXPECT_THROW((void)parse_shed_watermark("watermark"), PreconditionError);
}

TEST(ParseSojournTarget, AcceptsPositiveMicroseconds) {
  EXPECT_EQ(parse_sojourn_target_us("2000"), 2000us);
  EXPECT_EQ(parse_sojourn_target_us("1"), 1us);
}

TEST(ParseSojournTarget, RejectsZeroNegativeAndGarbage) {
  EXPECT_THROW((void)parse_sojourn_target_us("0"), PreconditionError);
  EXPECT_THROW((void)parse_sojourn_target_us("-5"), PreconditionError);
  EXPECT_THROW((void)parse_sojourn_target_us("2ms"), PreconditionError);
  EXPECT_THROW((void)parse_sojourn_target_us(""), PreconditionError);
  // Over the 60s ceiling: a target that long means the knob is misused.
  EXPECT_THROW((void)parse_sojourn_target_us("60000001"), PreconditionError);
}

TEST(ParsePriorityMix, AcceptsThreePercentagesSummingToHundred) {
  const PriorityMix mix = parse_priority_mix("20/30/50");
  EXPECT_EQ(mix.realtime, 20u);
  EXPECT_EQ(mix.normal, 30u);
  EXPECT_EQ(mix.batch, 50u);
  const PriorityMix all_normal = parse_priority_mix("0/100/0");
  EXPECT_EQ(all_normal.normal, 100u);
}

TEST(ParsePriorityMix, RejectsWrongArityOrSumOrGarbage) {
  EXPECT_THROW((void)parse_priority_mix("20/80"), PreconditionError);
  EXPECT_THROW((void)parse_priority_mix("20/30/51"), PreconditionError);
  EXPECT_THROW((void)parse_priority_mix("20/30/49"), PreconditionError);
  EXPECT_THROW((void)parse_priority_mix("a/b/c"), PreconditionError);
  EXPECT_THROW((void)parse_priority_mix("20/30/50/0"), PreconditionError);
  EXPECT_THROW((void)parse_priority_mix(""), PreconditionError);
  EXPECT_THROW((void)parse_priority_mix("-10/60/50"), PreconditionError);
}

// Parser properties over SplitMix64-generated inputs. Case i draws from
// its own seed, kPropertySeed + i, which every failure prints.
constexpr std::uint64_t kPropertySeed = 0x5eed3117ull;
constexpr std::uint64_t kPropertyCases = 20'000;

TEST(ParsePriorityMixProperty, GeneratedValidMixesRoundTrip) {
  for (std::uint64_t i = 0; i < kPropertyCases; ++i) {
    const std::uint64_t seed = kPropertySeed + i;
    SplitMix64 rng(seed);
    const auto realtime = static_cast<unsigned>(rng.below(101));
    const auto normal = static_cast<unsigned>(rng.below(101 - realtime));
    const unsigned batch = 100 - realtime - normal;
    std::string text;
    for (const unsigned part : {realtime, normal, batch}) {
      if (!text.empty()) text += '/';
      text += std::string(rng.below(3), '0') + std::to_string(part);
    }
    PriorityMix got;
    try {
      got = parse_priority_mix(text);
    } catch (const std::exception& e) {
      FAIL() << "seed " << seed << ": valid mix '" << text
             << "' was rejected: " << e.what();
    }
    ASSERT_TRUE(got.realtime == realtime && got.normal == normal &&
                got.batch == batch)
        << "seed " << seed << ", mix '" << text << "'";
  }
}

TEST(ParsePriorityMixProperty, TokenSoupsParseOrThrowOnlyPreconditionError) {
  static const char* const kTokens[] = {
      "0", "1", "5", "10", "20", "33", "45", "50", "99", "100", "101", "000",
      "4294967296", "18446744073709551617", "/", "/", "/", "//", "-", "+",
      " ", "\t", "%", ".", "1e2", "0x1", "a", "realtime"};
  constexpr std::size_t kCount = sizeof(kTokens) / sizeof(kTokens[0]);
  for (std::uint64_t i = 0; i < kPropertyCases; ++i) {
    const std::uint64_t seed = kPropertySeed + i;
    SplitMix64 rng(seed);
    std::string soup;
    for (std::uint64_t n = rng.below(8); n > 0; --n) {
      if (rng.below(16) == 0) {
        soup.push_back(static_cast<char>(1 + rng.below(255)));  // any byte
      } else {
        soup += kTokens[rng.below(kCount)];
      }
    }
    try {
      const PriorityMix mix = parse_priority_mix(soup);
      ASSERT_EQ(mix.realtime + mix.normal + mix.batch, 100u)
          << "seed " << seed << ", mix '" << soup << "'";
    } catch (const PreconditionError&) {
      // The only rejection allowed.
    } catch (const std::exception& e) {
      FAIL() << "seed " << seed << ": mix '" << soup
             << "' threw a non-precondition error: " << e.what();
    }
  }
}

TEST(PriorityMix, PickMatchesTheMixExactlyPerHundredWindow) {
  const PriorityMix mix = parse_priority_mix("20/30/50");
  std::size_t counts[kPriorityCount] = {0, 0, 0};
  for (std::uint64_t k = 300; k < 400; ++k) {  // any aligned window
    ++counts[static_cast<std::size_t>(mix.pick(k))];
  }
  EXPECT_EQ(counts[static_cast<std::size_t>(Priority::kRealtime)], 20u);
  EXPECT_EQ(counts[static_cast<std::size_t>(Priority::kNormal)], 30u);
  EXPECT_EQ(counts[static_cast<std::size_t>(Priority::kBatch)], 50u);
}

// --- OverloadConfig -----------------------------------------------------

TEST(OverloadConfig, DisabledByDefaultAndValidates) {
  const OverloadConfig config;
  EXPECT_FALSE(config.enabled());
  EXPECT_NO_THROW(config.validate());
}

TEST(OverloadConfig, ValidateRejectsBadKnobs) {
  OverloadConfig config;
  config.shed_watermark = 1.5;
  EXPECT_THROW(config.validate(), PreconditionError);
  config.shed_watermark = -0.1;
  EXPECT_THROW(config.validate(), PreconditionError);
  config.shed_watermark = 0.0;
  config.brownout = true;  // brownout without the layer armed
  EXPECT_THROW(config.validate(), PreconditionError);
  config.shed_watermark = 0.5;
  EXPECT_NO_THROW(config.validate());
  config.brownout_steps = 1;  // below the 2-step lattice minimum
  EXPECT_THROW(config.validate(), PreconditionError);
}

TEST(OverloadConfig, ApplyEnvFillsOnlyUnsetKnobs) {
  ::setenv("BINOPT_SERVICE_SHED_WATERMARK", "0.25", 1);
  ::setenv("BINOPT_SERVICE_SOJOURN_TARGET_US", "1500", 1);
  OverloadConfig from_env;
  from_env.apply_env();
  EXPECT_DOUBLE_EQ(from_env.shed_watermark, 0.25);
  EXPECT_EQ(from_env.sojourn_target, 1500us);

  OverloadConfig explicit_wins;
  explicit_wins.shed_watermark = 0.75;
  explicit_wins.sojourn_target = 4000us;
  explicit_wins.apply_env();
  EXPECT_DOUBLE_EQ(explicit_wins.shed_watermark, 0.75);
  EXPECT_EQ(explicit_wins.sojourn_target, 4000us);

  ::setenv("BINOPT_SERVICE_SHED_WATERMARK", "nonsense", 1);
  OverloadConfig bad;
  EXPECT_THROW(bad.apply_env(), PreconditionError);

  ::unsetenv("BINOPT_SERVICE_SHED_WATERMARK");
  ::unsetenv("BINOPT_SERVICE_SOJOURN_TARGET_US");
}

// --- OverloadController -------------------------------------------------

TEST(OverloadController, WatermarksDeriveFromCapacity) {
  OverloadConfig config;
  config.shed_watermark = 0.5;
  const OverloadController controller(config, 128);
  EXPECT_EQ(controller.base_watermark(), 64u);
  EXPECT_EQ(controller.batch_watermark(), 64u);
  // kNormal threshold: midpoint between the watermark and full capacity.
  EXPECT_EQ(controller.normal_watermark(), 64u + (128u - 64u + 1u) / 2u);
  EXPECT_EQ(controller.floor_watermark(), 128u / 16u);
  EXPECT_FALSE(controller.overloaded());
}

TEST(OverloadController, SojournTargetOnlyStartsFullyRelaxed) {
  OverloadConfig config;
  config.sojourn_target = 1000us;
  const OverloadController controller(config, 256);
  // No static watermark: shedding engages purely from measured delay, so
  // the base is full capacity ("never shed" until the controller says so).
  EXPECT_EQ(controller.base_watermark(), 256u);
  EXPECT_EQ(controller.batch_watermark(), 256u);
}

TEST(OverloadController, SustainedDelayTightensThenRecoveryRelaxes) {
  OverloadConfig config;
  config.shed_watermark = 0.5;
  config.sojourn_target = 1000us;   // 1ms
  config.control_interval = 100ms;
  const std::size_t capacity = 160;
  OverloadController controller(config, capacity);
  const std::size_t base = controller.base_watermark();
  const std::uint64_t over = 5'000'000;   // 5ms sojourn, above target
  const std::uint64_t under = 100'000;    // 0.1ms, below target

  auto now = Clock::now();
  controller.observe(over, now);  // opens the first interval
  now += 150ms;                   // past the interval end
  controller.observe(over, now);  // rolls over: min(over) > target
  EXPECT_LT(controller.batch_watermark(), base);
  EXPECT_TRUE(controller.overloaded());
  const std::size_t tightened = controller.batch_watermark();
  EXPECT_EQ(tightened, base - base / 4);

  // Keep the delay high: the watermark keeps shrinking but never
  // undershoots the floor.
  for (int i = 0; i < 32; ++i) {
    now += 150ms;
    controller.observe(over, now);
  }
  EXPECT_GE(controller.batch_watermark(), controller.floor_watermark());
  EXPECT_TRUE(controller.overloaded());

  // One fast-drained request per interval proves the standing queue
  // cleared: additive relax back toward the base...
  now += 150ms;
  controller.observe(under, now);
  now += 150ms;
  controller.observe(under, now);
  EXPECT_GT(controller.batch_watermark(), controller.floor_watermark());
  // ...but overloaded() only clears once FULLY relaxed (no brownout flap).
  EXPECT_TRUE(controller.overloaded());
  for (int i = 0; i < 32; ++i) {
    now += 150ms;
    controller.observe(under, now);
  }
  EXPECT_EQ(controller.batch_watermark(), base);
  EXPECT_FALSE(controller.overloaded());
}

TEST(OverloadController, StaticWatermarkNeverAdapts) {
  OverloadConfig config;
  config.shed_watermark = 0.5;  // no sojourn target: static shedding only
  OverloadController controller(config, 64);
  auto now = Clock::now();
  for (int i = 0; i < 8; ++i) {
    now += 1s;
    controller.observe(50'000'000, now);  // huge sojourns, ignored
  }
  EXPECT_EQ(controller.batch_watermark(), controller.base_watermark());
  EXPECT_FALSE(controller.overloaded());
}

TEST(PriorityToString, CoversEveryClass) {
  EXPECT_STREQ(to_string(Priority::kRealtime), "realtime");
  EXPECT_STREQ(to_string(Priority::kNormal), "normal");
  EXPECT_STREQ(to_string(Priority::kBatch), "batch");
}

}  // namespace
}  // namespace binopt::core::service
