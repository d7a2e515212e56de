// FleetRouter suite (DESIGN.md §2.8): the energy/latency-aware dispatch
// layer that replaces naive worker selection with per-batch cost
// prediction off the paper's platform/energy models, continuously
// corrected by a measured-vs-predicted feedback loop.
//
//   1. UNIT: policy parsing/validation, the exact affine decomposition of
//      modelled_batch_seconds, deterministic placement under both
//      policies, queue-depth weighting, routable masking, and EWMA
//      feedback convergence after an injected slowdown.
//   2. SERVICE: routed traffic stays bit-identical to the unrouted
//      service (single-target parity), the router organically starves a
//      stalled backend before its circuit trips, and chaos-grade fault
//      plans keep parity with honest routed/misrouted attribution.
//
// test_core runs under the CI ThreadSanitizer job, so the service-level
// scenarios also race-check the routed-queue spine (per-worker MpmcRings,
// probe steal, quarantine drain) against concurrent submitters.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <thread>
#include <future>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/accelerator.h"
#include "core/service/pricing_service.h"
#include "core/service/router.h"
#include "finance/workload.h"
#include "ocl/faults/fault_plan.h"

namespace binopt::core::service {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kSteps = 64;

RouterConfig latency_config() {
  RouterConfig config;
  config.policy = RouterPolicy::kLatency;
  return config;
}

// ---------------------------------------------------------------------------
// Policy parsing and config validation.

TEST(RouterPolicy, ParsesAndRoundTrips) {
  EXPECT_EQ(parse_router_policy("off"), RouterPolicy::kOff);
  EXPECT_EQ(parse_router_policy("latency"), RouterPolicy::kLatency);
  EXPECT_EQ(parse_router_policy("energy"), RouterPolicy::kEnergyBudget);
  for (const RouterPolicy policy :
       {RouterPolicy::kOff, RouterPolicy::kLatency,
        RouterPolicy::kEnergyBudget}) {
    EXPECT_EQ(parse_router_policy(to_string(policy)), policy);
  }
  EXPECT_THROW((void)parse_router_policy("fastest"), PreconditionError);
  EXPECT_THROW((void)parse_router_policy(""), PreconditionError);
}

// Parser properties over SplitMix64-generated inputs. Case i draws from
// its own seed, kPropertySeed + i, which every failure prints.
constexpr std::uint64_t kPropertySeed = 0x5eed4077ull;
constexpr std::uint64_t kPropertyCases = 20'000;
constexpr RouterPolicy kPolicies[] = {
    RouterPolicy::kOff, RouterPolicy::kLatency, RouterPolicy::kEnergyBudget};

TEST(RouterPolicyProperty, GeneratedValidPoliciesRoundTrip) {
  for (std::uint64_t i = 0; i < kPropertyCases; ++i) {
    const std::uint64_t seed = kPropertySeed + i;
    SplitMix64 rng(seed);
    const RouterPolicy want = kPolicies[rng.below(3)];
    const std::string text = to_string(want);
    RouterPolicy got = RouterPolicy::kOff;
    try {
      got = parse_router_policy(text);
    } catch (const std::exception& e) {
      FAIL() << "seed " << seed << ": valid policy '" << text
             << "' was rejected: " << e.what();
    }
    ASSERT_EQ(got, want) << "seed " << seed << ", policy '" << text << "'";
  }
}

TEST(RouterPolicyProperty, TokenSoupsParseOrThrowOnlyPreconditionError) {
  static const char* const kTokens[] = {
      "off", "latency", "energy", "of", "lat", "ency", "Energy", "LATENCY",
      "on", "none", "energy-budget", "=", "-", " ", "\t", "\n", "|", ","};
  constexpr std::size_t kCount = sizeof(kTokens) / sizeof(kTokens[0]);
  for (std::uint64_t i = 0; i < kPropertyCases; ++i) {
    const std::uint64_t seed = kPropertySeed + i;
    SplitMix64 rng(seed);
    std::string soup;
    for (std::uint64_t n = rng.below(4); n > 0; --n) {
      if (rng.below(8) == 0) {
        soup.push_back(static_cast<char>(1 + rng.below(255)));  // any byte
      } else {
        soup += kTokens[rng.below(kCount)];
      }
    }
    try {
      // Accepted only verbatim: the spelling must be the policy's own.
      ASSERT_EQ(to_string(parse_router_policy(soup)), soup)
          << "seed " << seed;
    } catch (const PreconditionError&) {
      // The only rejection allowed.
    } catch (const std::exception& e) {
      FAIL() << "seed " << seed << ": policy '" << soup
             << "' threw a non-precondition error: " << e.what();
    }
  }
}

TEST(RouterPolicy, EnvKnobSelectsThePolicy) {
  ::setenv("BINOPT_SERVICE_ROUTER", "energy", 1);
  EXPECT_EQ(router_policy_from_env(), RouterPolicy::kEnergyBudget);
  ::setenv("BINOPT_SERVICE_ROUTER", "banana", 1);
  EXPECT_THROW((void)router_policy_from_env(), PreconditionError);
  ::unsetenv("BINOPT_SERVICE_ROUTER");
  EXPECT_EQ(router_policy_from_env(), RouterPolicy::kOff);
}

TEST(RouterPolicy, ConfigValidationRejectsNonsense) {
  RouterConfig config = latency_config();
  config.feedback_alpha = 0.0;
  EXPECT_THROW(config.validate(), PreconditionError);
  config = latency_config();
  config.feedback_alpha = 1.5;
  EXPECT_THROW(config.validate(), PreconditionError);
  config = latency_config();
  config.watts_budget = -1.0;
  EXPECT_THROW(config.validate(), PreconditionError);
  config = latency_config();
  config.min_correction = 10.0;
  config.max_correction = 1.0;
  EXPECT_THROW(config.validate(), PreconditionError);
  EXPECT_NO_THROW(latency_config().validate());
}

// ---------------------------------------------------------------------------
// Cost model: the router's affine fit is the model, exactly.

TEST(FleetRouter, AffineFitReproducesTheModelExactly) {
  const std::vector<Target> fleet = {Target::kCpuReference,
                                     Target::kGpuKernelB,
                                     Target::kFpgaKernelB};
  const FleetRouter router(fleet, kSteps, latency_config());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{17},
                                std::size_t{257}, std::size_t{1024}}) {
      const double modelled =
          PricingAccelerator::modelled_batch_seconds(fleet[i], kSteps, n);
      // The models are affine in n, so fitting at two points must
      // reproduce them everywhere (tiny FP tolerance for the re-derived
      // slope/intercept arithmetic).
      EXPECT_NEAR(router.predicted_batch_seconds(i, n), modelled,
                  1e-9 * modelled + 1e-15)
          << to_string(fleet[i]) << " n=" << n;
    }
  }
}

TEST(FleetRouter, LatencyPolicyPicksTheModelledFastestBackend) {
  const std::vector<Target> fleet = {Target::kCpuReference,
                                     Target::kGpuKernelB,
                                     Target::kFpgaKernelB};
  const FleetRouter router(fleet, kSteps, latency_config());
  std::size_t fastest = 0;
  double best = PricingAccelerator::modelled_batch_seconds(fleet[0], kSteps, 64);
  for (std::size_t i = 1; i < fleet.size(); ++i) {
    const double t =
        PricingAccelerator::modelled_batch_seconds(fleet[i], kSteps, 64);
    if (t < best) {
      best = t;
      fastest = i;
    }
  }
  // Idle fleet, corrections at 1.0: placement is the argmin of the model.
  EXPECT_EQ(router.pick(64), fastest);
}

TEST(FleetRouter, QueueDepthShiftsPlacementOffTheFastestBackend) {
  const std::vector<Target> fleet = {Target::kCpuReference,
                                     Target::kGpuKernelB,
                                     Target::kFpgaKernelB};
  FleetRouter router(fleet, kSteps, latency_config());
  const std::size_t first = router.pick(64);
  // Pile outstanding work onto the preferred backend until the corrected
  // queue estimate makes somebody else cheaper (join-shortest-queue).
  router.on_enqueued(first, 1u << 22);
  const std::size_t second = router.pick(64);
  EXPECT_NE(second, first);
  // Draining the queue restores the original placement.
  router.on_dequeued(first, 1u << 22);
  EXPECT_EQ(router.pick(64), first);
}

TEST(FleetRouter, UnroutableBackendsAreSkippedUntilNoneRemain) {
  const std::vector<Target> fleet = {Target::kCpuReference,
                                     Target::kCpuReference};
  FleetRouter router(fleet, kSteps, latency_config());
  router.set_routable(0, false);
  EXPECT_EQ(router.pick(1), 1u);
  // Whole fleet down: route anyway (the probe path drains it) instead of
  // wedging admission.
  router.set_routable(1, false);
  const std::size_t pick = router.pick(1);
  EXPECT_LT(pick, fleet.size());
  router.set_routable(0, true);
  EXPECT_EQ(router.pick(1), 0u);
}

TEST(FleetRouter, EnergyPolicyPicksTheMostFrugalBackendUnderBudget) {
  const std::vector<Target> fleet = {Target::kCpuReference,
                                     Target::kGpuKernelB,
                                     Target::kFpgaKernelB};
  RouterConfig config;
  config.policy = RouterPolicy::kEnergyBudget;
  const FleetRouter unbudgeted(fleet, kSteps, config);

  // Modelled J/option per backend, straight from the paper's models.
  std::vector<double> jpo;
  for (const Target t : fleet) {
    jpo.push_back(PricingAccelerator::modelled_power_watts(t) /
                  PricingAccelerator::modelled_options_per_second(t, kSteps));
  }
  std::size_t frugal = 0;
  for (std::size_t i = 1; i < fleet.size(); ++i) {
    if (jpo[i] < jpo[frugal]) frugal = i;
  }
  EXPECT_EQ(unbudgeted.pick(64), frugal);
  // The paper's headline: the FPGA kernel is the energy-efficient target.
  EXPECT_EQ(fleet[frugal], Target::kFpgaKernelB);

  // A watts budget below every backend must degrade gracefully to the
  // frugal pick, not leave batches unroutable.
  config.watts_budget = 1e-3;
  const FleetRouter impossible(fleet, kSteps, config);
  EXPECT_EQ(impossible.pick(64), frugal);
}

TEST(FleetRouter, FeedbackConvergesOnAnInjectedFourXSlowdown) {
  const std::vector<Target> fleet = {Target::kCpuReference};
  FleetRouter router(fleet, kSteps, latency_config());
  ASSERT_DOUBLE_EQ(router.correction(0), 1.0);

  // Report every launch as exactly 4x the model's prediction. The EWMA
  // must converge to a 4x correction (alpha 0.35 closes the gap fast).
  constexpr std::size_t kBatch = 32;
  const auto four_x_ns = static_cast<std::uint64_t>(
      router.predicted_batch_seconds(0, kBatch) * 4.0 * 1e9);
  for (int i = 0; i < 32; ++i) {
    const double ratio = router.record_measurement(0, kBatch, four_x_ns);
    EXPECT_NEAR(ratio, 4.0, 0.05);
  }
  EXPECT_NEAR(router.correction(0), 4.0, 0.05);
  // And the corrected estimate now reflects the slowdown.
  EXPECT_NEAR(router.corrected_queue_seconds(0, kBatch),
              router.predicted_batch_seconds(0, kBatch) * 4.0,
              router.predicted_batch_seconds(0, kBatch) * 0.2);
}

TEST(FleetRouter, FeedbackClampsGarbageMeasurements) {
  RouterConfig config = latency_config();
  config.max_correction = 100.0;
  config.min_correction = 0.1;
  FleetRouter router({Target::kCpuReference}, kSteps, config);
  // An absurd measurement saturates at the clamp instead of exploding.
  for (int i = 0; i < 64; ++i) {
    router.record_measurement(0, 1, ~std::uint64_t{0} / 2);
  }
  EXPECT_LE(router.correction(0), 100.0);
  // A zero measurement saturates at the floor instead of hitting 0 (a
  // zero correction would make every queue look free).
  for (int i = 0; i < 64; ++i) router.record_measurement(0, 1, 0);
  EXPECT_GE(router.correction(0), 0.1);
}

// ---------------------------------------------------------------------------
// Service integration.

std::vector<double> direct_prices(const std::vector<finance::OptionSpec>& batch,
                                  Target target) {
  PricingAccelerator direct({target, kSteps, /*compute_rmse=*/false});
  return direct.run(batch).prices;
}

TEST(RoutedService, SingleTargetRoutingIsBitIdenticalToUnrouted) {
  const auto batch = finance::make_curve_batch(96);
  ServiceConfig config;
  config.targets.assign(2, Target::kCpuReference);
  config.steps = kSteps;
  config.max_batch = 16;
  config.linger = 0us;
  config.cache_capacity = 0;

  PricingService plain(config);
  const std::vector<double> unrouted = plain.submit_batch(batch).get();

  config.router.policy = RouterPolicy::kLatency;
  PricingService routed(config);
  const std::vector<double> via_router = routed.submit_batch(batch).get();
  EXPECT_EQ(via_router, unrouted);  // bitwise: routing moves work, not math

  const auto stats = routed.stats();
  EXPECT_EQ(stats.requests_routed, batch.size());
  EXPECT_EQ(stats.requests_completed, batch.size());
  EXPECT_GT(stats.predicted_vs_measured.count(), 0u);
  // Quotes report both the placement and the pricing backend.
  const Quote quote = routed.submit(batch.front()).get();
  EXPECT_EQ(quote.target, Target::kCpuReference);
  EXPECT_EQ(quote.routed_target, Target::kCpuReference);
}

TEST(RoutedService, FeedbackStarvesAStalledBackendBeforeItsCircuitTrips) {
  // Two identical backends; worker 1 stalls 5ms on EVERY launch (the
  // stall succeeds — health never trips, the circuit stays closed). The
  // router's measured-vs-predicted feedback is the only mechanism that
  // can notice, and it must shift the traffic share toward worker 0.
  ServiceConfig config;
  config.targets.assign(2, Target::kFpgaKernelB);
  config.steps = kSteps;
  config.max_batch = 8;
  config.linger = 0us;
  config.cache_capacity = 0;
  config.router.policy = RouterPolicy::kLatency;
  config.worker_fault_plans.resize(2);
  config.worker_fault_plans[1] =
      ocl::faults::parse_fault_plan("stall@1x100000,ms=5");

  const auto batch = finance::make_curve_batch(160);
  const std::vector<double> expected =
      direct_prices(batch, Target::kFpgaKernelB);

  // Waves of 16 with a barrier between them: placements in wave k see the
  // measured/predicted corrections learned from waves < k. (A single
  // up-front blast would be placed entirely on pre-feedback estimates.)
  PricingService service(config);
  constexpr std::size_t kWave = 16;
  for (std::size_t base = 0; base < batch.size(); base += kWave) {
    std::vector<std::future<Quote>> futures;
    futures.reserve(kWave);
    for (std::size_t i = base; i < base + kWave; ++i) {
      futures.push_back(service.submit(batch[i]));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      EXPECT_EQ(futures[i].get().price, expected[base + i]);  // parity
    }
  }

  const auto stats = service.stats();
  ASSERT_EQ(stats.served_by_backend.size(), 2u);
  // The healthy backend ends up with the strict majority of the traffic —
  // organic starvation of the slow worker, no quarantine involved.
  EXPECT_GT(stats.served_by_backend[0], stats.served_by_backend[1]);
  EXPECT_EQ(stats.quarantines_entered, 0u);
  EXPECT_GT(stats.predicted_vs_measured.count(), 0u);
  EXPECT_EQ(stats.requests_completed, batch.size());
}

TEST(RoutedService, ChaosFaultsKeepParityAndHonestAttribution) {
  // Chaos with the router on: worker 0 loses its device on launch 1 and
  // worker 1 hiccups transiently — every price must still be bitwise
  // identical, and requests collected by a worker other than the routed
  // one must be counted as misrouted (failover/probe traffic).
  ServiceConfig config;
  config.targets.assign(2, Target::kFpgaKernelB);
  config.steps = kSteps;
  config.max_batch = 16;
  config.linger = 0us;
  config.cache_capacity = 0;
  config.retry.max_attempts = 10;
  config.retry.base_backoff = 100us;
  config.retry.max_backoff = 2000us;
  config.health.probe_backoff = 1000us;
  config.health.max_probe_backoff = 8000us;
  config.health.probe_successes = 2;
  config.router.policy = RouterPolicy::kLatency;
  config.worker_fault_plans = {
      ocl::faults::parse_fault_plan("device-lost@1"),
      ocl::faults::parse_fault_plan("transient@2x2")};

  const auto batch = finance::make_curve_batch(64);
  const std::vector<double> expected =
      direct_prices(batch, Target::kFpgaKernelB);

  PricingService service(config);
  EXPECT_EQ(service.submit_batch(batch).get(), expected);

  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_completed, batch.size());
  EXPECT_EQ(stats.requests_failed, 0u);
  EXPECT_EQ(stats.requests_routed, batch.size());
  if (stats.failovers > 0) {
    // Failed-over work was collected off its routed backend.
    EXPECT_GT(stats.requests_misrouted, 0u);
  }
}

TEST(RoutedService, EnergyPolicyRoutesToTheFrugalBackendWithParity) {
  // Mixed fleet under the energy policy: all steady traffic must land on
  // the modelled-frugal backend (the FPGA kernel) and stay bit-identical
  // to that backend's direct run.
  ServiceConfig config;
  config.targets = {Target::kCpuReference, Target::kFpgaKernelB};
  config.steps = kSteps;
  config.max_batch = 16;
  config.linger = 0us;
  config.cache_capacity = 0;
  config.router.policy = RouterPolicy::kEnergyBudget;

  const auto batch = finance::make_curve_batch(32);
  const std::vector<double> expected =
      direct_prices(batch, Target::kFpgaKernelB);

  PricingService service(config);
  std::vector<std::future<Quote>> futures;
  futures.reserve(batch.size());
  for (const auto& spec : batch) futures.push_back(service.submit(spec));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Quote quote = futures[i].get();
    EXPECT_EQ(quote.price, expected[i]);
    EXPECT_EQ(quote.target, Target::kFpgaKernelB);
    EXPECT_EQ(quote.routed_target, Target::kFpgaKernelB);
  }
  const auto stats = service.stats();
  ASSERT_EQ(stats.served_by_backend.size(), 2u);
  EXPECT_EQ(stats.served_by_backend[0], 0u);
  EXPECT_EQ(stats.served_by_backend[1], batch.size());
}

TEST(RoutedService, IdleWorkerParksWhileAPeerHasBacklog) {
  // Everything is routed to worker 1 (the energy policy's frugal FPGA
  // backend), whose first launch stalls; the rest of the batch waits on
  // its ring. Worker 0 has nothing to take, so it must park, not wake on
  // the peer's backlog and spin: the process burns almost no CPU while
  // the stall lasts (a spinning worker burns a whole core).
  ServiceConfig config;
  config.targets = {Target::kCpuReference, Target::kFpgaKernelB};
  config.steps = kSteps;
  config.max_batch = 4;
  config.linger = 0us;
  config.cache_capacity = 0;
  config.router.policy = RouterPolicy::kEnergyBudget;
  config.worker_fault_plans.resize(2);
  config.worker_fault_plans[1] =
      ocl::faults::parse_fault_plan("stall@1,ms=1000");

  const auto batch = finance::make_curve_batch(32);
  const std::vector<double> expected =
      direct_prices(batch, Target::kFpgaKernelB);

  PricingService service(config);
  auto prices = service.submit_batch(batch);
  // Let worker 1 enter its stalled launch, then sample a window inside it.
  std::this_thread::sleep_for(150ms);
  ASSERT_GT(service.queued_requests(), 0u);
  const std::clock_t cpu0 = std::clock();
  const auto wall0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(400ms);
  const std::clock_t cpu1 = std::clock();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  const double cores =
      static_cast<double>(cpu1 - cpu0) / CLOCKS_PER_SEC / wall_s;
  EXPECT_LT(cores, 0.25) << "core-seconds per wall-second while parked";

  EXPECT_EQ(prices.get(), expected);
  const auto stats = service.stats();
  ASSERT_EQ(stats.served_by_backend.size(), 2u);
  EXPECT_EQ(stats.served_by_backend[0], 0u);
  EXPECT_EQ(stats.served_by_backend[1], batch.size());
}

// ---------------------------------------------------------------------------
// Attribution satellites: cache hits and degraded quotes report the
// backend that actually priced them, never merely the routed one.

TEST(RoutedService, CacheHitReportsTheBackendThatOriginallyPricedIt) {
  ServiceConfig config;
  config.targets = {Target::kFpgaKernelB};
  config.steps = kSteps;
  config.max_batch = 8;
  config.linger = 0us;
  config.cache_capacity = 128;
  config.router.policy = RouterPolicy::kLatency;

  PricingService service(config);
  const finance::OptionSpec spec{};
  const Quote cold = service.submit(spec).get();
  EXPECT_FALSE(cold.from_cache);
  EXPECT_EQ(cold.target, Target::kFpgaKernelB);
  EXPECT_EQ(cold.routed_target, Target::kFpgaKernelB);

  const Quote warm = service.submit(spec).get();
  EXPECT_TRUE(warm.from_cache);  // stamped, not silent
  EXPECT_EQ(warm.price, cold.price);
  // Attribution: the cache hit names the backend that priced the entry.
  EXPECT_EQ(warm.target, Target::kFpgaKernelB);
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

TEST(RoutedService, DegradedQuoteSeparatesRoutedAndPricingBackends) {
  // Routed to the FPGA backend, which permanently dies: with
  // degrade_to_cpu the CPU reference answers. The quote must name BOTH
  // truths — routed_target = where the router placed it, target = who
  // actually priced it.
  ServiceConfig config;
  config.targets = {Target::kFpgaKernelB};
  config.steps = kSteps;
  config.max_batch = 8;
  config.linger = 0us;
  config.cache_capacity = 0;
  config.retry.max_attempts = 2;
  config.retry.base_backoff = 100us;
  config.retry.max_backoff = 1000us;
  config.degrade_to_cpu = true;
  config.router.policy = RouterPolicy::kLatency;
  config.worker_fault_plans = {
      ocl::faults::parse_fault_plan("transient@~100")};

  PricingService service(config);
  const finance::OptionSpec spec{};
  const double cpu_price =
      direct_prices({spec}, Target::kCpuReference).front();

  const Quote quote = service.submit(spec).get();
  EXPECT_TRUE(quote.degraded);
  EXPECT_EQ(quote.price, cpu_price);
  EXPECT_EQ(quote.target, Target::kCpuReference);      // who priced it
  EXPECT_EQ(quote.routed_target, Target::kFpgaKernelB);  // where it went
  EXPECT_EQ(service.stats().degraded_completions, 1u);
}

}  // namespace
}  // namespace binopt::core::service
