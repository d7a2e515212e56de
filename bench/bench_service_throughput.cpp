// Service throughput — two modes over the paper's canonical workload
// (2000-option volatility curves, Section I):
//
//   --mode curve (default): the micro-batched PricingService vs submitting
//   one option at a time. Both sides run through the service so the
//   comparison isolates what batching buys: coalesced NDRange launches,
//   sharding across backend workers, and the LRU quote cache on repeat
//   ticks.
//
//   --mode fleet: a heterogeneous CPU+GPU+FPGA fleet priced two ways —
//   the status-quo shared-FIFO dispatch (workers pull max_batch-sized
//   chunks round-robin-style at their own pace) vs the fleet router
//   (DESIGN.md §2.8), which places each batch on the backend with the
//   lowest feedback-corrected predicted completion time. A third pass
//   runs the energy-budget policy and reports modelled J/option. Gates:
//   the router must not lose to the shared queue on options/s, and the
//   energy policy must not lose to it on modelled J/option.
//
//   --mode greeks: a book of Greeks requests through the GreeksService
//   (DESIGN.md §2.9), which expands each request into four bump legs and
//   fans them through the batcher as one many-kernel job, vs the same
//   requests against a one-leg-per-submit service (max_batch 1, no
//   linger). Every assembled Greeks is checked bitwise against a direct
//   reference (shared lattice front + bump set, legs priced by a private
//   accelerator run). Gate (reference target): the batched GreeksService
//   must not lose to the one-leg-at-a-time baseline.
//
//   --mode bursty: the market-open spike. N submitter threads (default 8)
//   all blast the curve through price_batch_blocking at once, then trickle
//   requests through a quiet tail — the arrival pattern the lock-free ring
//   (DESIGN.md §2.6) was built for. The run is measured twice with
//   identical traffic and one variable changed: the SIMD kernel forced
//   off, then runtime SIMD dispatch. Reports spike options/s and
//   p50/p99/p999 request latency for both, and the speedup between them.
//
//   --mode soak: the overload soak (DESIGN.md §2.10). First measures the
//   service's uncontended capacity with a closed loop, then sweeps
//   open-loop Poisson-free (fixed-schedule) arrivals at multiples of that
//   capacity (default 0.5x, 1x, 2x, 4x — i.e. from comfortable to four
//   times saturated), issuing >=1M single-quote submissions (default)
//   with a mixed realtime/normal/batch priority stream and a per-request
//   deadline, against a service with priority admission + the adaptive
//   shed watermark armed. Every future is tallied into exactly one
//   outcome bucket, so the gates are exact, not statistical: (a) request
//   conservation — issued == completed + shed + timed-out + failed, per
//   class, cross-checked against the service's own counters by the
//   service ledger (src/core/service/ledger.h); (b) the
//   kRealtime completion p99 while 4x-overloaded stays within 2x its
//   uncontended p99 (+25ms scheduling slack); (c) every completion that
//   was not browned out matches the direct run bit for bit.
//
// A direct PricingAccelerator::run of the curve supplies the bit-exact
// parity reference, and every mode holds each service it drives to the
// service ledger. Emits a machine-readable JSON row after
// the human-readable report (written to --json-out too, when given — CI
// stores it as BENCH_service_throughput.json). Exits non-zero on parity
// divergence, on batching losing to one-at-a-time (curve mode), or on the
// SIMD kernel losing to the scalar one (bursty mode, reference target on a
// SIMD-capable host).
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.h"
#include "core/accelerator.h"
#include "core/service/greeks_service.h"
#include "core/service/ledger.h"
#include "core/service/pricing_service.h"
#include "energy/energy_model.h"
#include "finance/binomial_batch.h"
#include "finance/greeks.h"
#include "finance/workload.h"

namespace {

using namespace binopt;
using Clock = std::chrono::steady_clock;
using core::service::ServiceLedger;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void emit_json(const std::string& row, const std::string& json_out) {
  std::printf("%s\n", row.c_str());
  if (json_out.empty()) return;
  std::FILE* file = std::fopen(json_out.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "WARN: cannot write %s\n", json_out.c_str());
    return;
  }
  std::fprintf(file, "%s\n", row.c_str());
  std::fclose(file);
}

std::string format_row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buffer[2048];
  std::vsnprintf(buffer, sizeof buffer, fmt, args);
  va_end(args);
  return buffer;
}

/// One measured run in bursty mode.
struct BurstyOutcome {
  double spike_ops = 0.0;  ///< best-of-reps spike throughput
  core::service::ServiceStats stats;  ///< merged across reps
  bool ok = true;                     ///< every rep passed the ledger
};

/// Market-open arrival pattern: every submitter blasts the whole curve in
/// back-to-back blocking chunks (the spike), then trickles small chunks
/// with think-time gaps (the quiet tail). Spike throughput is wall-clock
/// from the starting gun to the last submitter finishing its spike.
BurstyOutcome run_bursty(const core::ServiceConfig& config,
                         const std::vector<finance::OptionSpec>& curve,
                         const std::vector<double>& reference,
                         std::size_t submitters, int reps) {
  constexpr std::size_t kSpikeChunk = 32;
  constexpr std::size_t kQuietChunk = 8;
  constexpr int kQuietChunksPerSubmitter = 8;

  BurstyOutcome outcome;
  for (int rep = 0; rep < reps; ++rep) {
    core::PricingService service(config);
    std::vector<ServiceLedger> ledgers(submitters);
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    std::atomic<std::size_t> spike_done{0};
    std::vector<std::thread> threads;
    threads.reserve(submitters);
    for (std::size_t sub = 0; sub < submitters; ++sub) {
      threads.emplace_back([&, sub] {
        std::vector<double> out(kSpikeChunk);
        ServiceLedger& mine = ledgers[sub];
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        // Spike: the whole curve, as fast as the service admits it.
        for (std::size_t base = 0; base < curve.size(); base += kSpikeChunk) {
          const std::size_t n = std::min(kSpikeChunk, curve.size() - base);
          service.price_batch_blocking(curve.data() + base, n, out.data());
          mine.complete_batch(core::Priority::kNormal, {out.data(), n},
                              {reference.data() + base, n});
        }
        spike_done.fetch_add(1, std::memory_order_release);
        // Quiet tail: sparse mid-session flow, offset per submitter.
        for (int chunk = 0; chunk < kQuietChunksPerSubmitter; ++chunk) {
          const std::size_t base =
              ((sub + 1) * 97 + static_cast<std::size_t>(chunk) * kQuietChunk) %
              (curve.size() - kQuietChunk);
          service.price_batch_blocking(curve.data() + base, kQuietChunk,
                                       out.data());
          mine.complete_batch(core::Priority::kNormal,
                              {out.data(), kQuietChunk},
                              {reference.data() + base, kQuietChunk});
          std::this_thread::sleep_for(std::chrono::microseconds{500});
        }
      });
    }
    while (ready.load() < submitters) std::this_thread::yield();
    const auto start = Clock::now();
    go.store(true, std::memory_order_release);
    while (spike_done.load(std::memory_order_acquire) < submitters) {
      std::this_thread::sleep_for(std::chrono::microseconds{50});
    }
    const double spike_s = seconds_since(start);
    for (auto& thread : threads) thread.join();

    const double ops =
        static_cast<double>(submitters * curve.size()) / spike_s;
    outcome.spike_ops = std::max(outcome.spike_ops, ops);
    const core::service::ServiceStats stats = service.stats();
    ServiceLedger ledger;
    for (const ServiceLedger& mine : ledgers) ledger += mine;
    outcome.ok = ledger.passes(stats, "bursty") && outcome.ok;
    outcome.stats += stats;
  }
  return outcome;
}

/// One measured dispatch policy in fleet mode.
struct FleetOutcome {
  double ops = 0.0;                     ///< best-of-reps curve throughput
  std::vector<std::uint64_t> served;    ///< per fleet index, measured reps
  core::service::ServiceStats stats;    ///< measured reps only (no warmup)
  bool ok = true;                       ///< every pass passed the ledger
};

/// Streams `reps` timed passes of the curve through `service` as
/// single-quote submissions; each Quote names the backend that priced it,
/// so parity is checked against that backend's own direct run; every pass
/// is held to the ledger against the service's counters. One
/// untimed warmup pass runs first: it builds every backend's pricer and —
/// with the fleet router on — lets the measured/predicted feedback
/// converge before the clock starts (the service, and thus the router's
/// learned corrections, persists across the timed reps).
FleetOutcome run_fleet(
    core::PricingService& service,
    const std::vector<finance::OptionSpec>& curve,
    const std::map<core::Target, std::vector<double>>& refs, int reps) {
  FleetOutcome outcome;
  ServiceLedger ledger;  // every pass, warmup included
  std::vector<std::future<core::Quote>> futures;
  futures.reserve(curve.size());
  for (int pass = 0; pass < reps + 1; ++pass) {
    if (pass == 1) outcome.stats = service.stats();  // warmup snapshot
    futures.clear();
    const auto start = Clock::now();
    for (const auto& spec : curve) futures.push_back(service.submit(spec));
    ledger[core::Priority::kNormal].issued += curve.size();
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const core::Quote quote = futures[i].get();
      ledger.complete(core::Priority::kNormal, quote,
                      refs.at(quote.target)[i]);
    }
    const double ops =
        static_cast<double>(curve.size()) / seconds_since(start);
    if (pass > 0) outcome.ops = std::max(outcome.ops, ops);
  }
  const core::service::ServiceStats total = service.stats();
  outcome.ok = ledger.passes(total, "fleet");
  outcome.stats = total.minus(outcome.stats);
  outcome.served = outcome.stats.served_by_backend;
  return outcome;
}

/// The round-robin control the router replaces: option i goes to backend
/// i mod fleet-size — the canonical naive fleet dispatch (each backend is
/// its own single-target service, as in a load-balancer rotating across
/// appliances). Same warmup/timing discipline as run_fleet.
FleetOutcome run_round_robin(
    std::vector<std::unique_ptr<core::PricingService>>& services,
    const std::vector<finance::OptionSpec>& curve,
    const std::map<core::Target, std::vector<double>>& refs, int reps) {
  FleetOutcome outcome;
  ServiceLedger ledger;
  outcome.served.assign(services.size(), 0);
  std::vector<std::future<core::Quote>> futures;
  futures.reserve(curve.size());
  for (int pass = 0; pass < reps + 1; ++pass) {
    futures.clear();
    const auto start = Clock::now();
    for (std::size_t i = 0; i < curve.size(); ++i) {
      futures.push_back(services[i % services.size()]->submit(curve[i]));
    }
    ledger[core::Priority::kNormal].issued += curve.size();
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const core::Quote quote = futures[i].get();
      ledger.complete(core::Priority::kNormal, quote,
                      refs.at(quote.target)[i]);
      if (pass > 0) ++outcome.served[i % services.size()];
    }
    const double ops =
        static_cast<double>(curve.size()) / seconds_since(start);
    if (pass > 0) outcome.ops = std::max(outcome.ops, ops);
  }
  core::service::ServiceStats total;
  for (const auto& service : services) total += service->stats();
  outcome.ok = ledger.passes(total, "fleet round-robin");
  return outcome;
}

/// served-weighted modelled J/option of one measured placement: what the
/// paper's power model says this traffic split cost per option.
double modelled_joules_per_option(const std::vector<core::Target>& targets,
                                  const std::vector<std::uint64_t>& served,
                                  std::size_t steps) {
  double joules = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const std::uint64_t n = i < served.size() ? served[i] : 0;
    if (n == 0) continue;
    const double jpo = energy::safe_joules_per_option(
        core::PricingAccelerator::modelled_options_per_second(targets[i],
                                                              steps),
        core::PricingAccelerator::modelled_power_watts(targets[i]));
    joules += static_cast<double>(n) * jpo;
    total += static_cast<double>(n);
  }
  return total > 0.0 ? joules / total : 0.0;
}

void print_fleet(const char* label, const std::vector<core::Target>& targets,
                 const FleetOutcome& outcome, double jpo) {
  std::printf("%-22s : %10.1f options/s | modelled %.3g J/option | served",
              label, outcome.ops, jpo);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const std::uint64_t n =
        i < outcome.served.size() ? outcome.served[i] : 0;
    std::printf(" %llu", static_cast<unsigned long long>(n));
  }
  std::printf("\n");
}

void print_bursty(const char* label, const BurstyOutcome& outcome) {
  std::printf("%-22s : %10.1f options/s spike | latency p50 %.3f ms, "
              "p99 %.3f ms, p999 %.3f ms\n",
              label, outcome.spike_ops,
              outcome.stats.request_latency_ns.p50() / 1e6,
              outcome.stats.request_latency_ns.p99() / 1e6,
              outcome.stats.request_latency_ns.p999() / 1e6);
}

/// One arrival-rate point of the soak sweep.
struct SoakPoint {
  double multiplier = 0.0;     ///< arrival rate as a fraction of capacity
  double target_rate = 0.0;    ///< requests/s the schedule aimed for
  double achieved_rate = 0.0;  ///< issued / wall-clock (drain included)
  double elapsed_s = 0.0;
  ServiceLedger ledger;
  /// Submit -> Quote latency of every completion, per priority class.
  std::array<std::vector<std::uint64_t>, core::kPriorityCount> latency_ns;
  core::service::ServiceStats stats;
};

std::uint64_t percentile_ns(std::vector<std::uint64_t> values, double pct) {
  if (values.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      pct / 100.0 * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

/// Uncontended capacity probe: one closed-loop pass of the curve per
/// submitter through a service with the overload layer disarmed — the raw
/// spine's sustainable options/s, which the sweep's arrival rates are
/// multiples of.
double measure_soak_capacity(core::ServiceConfig config,
                             const std::vector<finance::OptionSpec>& curve,
                             std::size_t submitters) {
  config.overload = {};
  core::PricingService service(config);
  constexpr std::size_t kChunk = 32;
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(submitters);
  for (std::size_t sub = 0; sub < submitters; ++sub) {
    threads.emplace_back([&] {
      std::vector<double> out(kChunk);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t base = 0; base < curve.size(); base += kChunk) {
        const std::size_t n = std::min(kChunk, curve.size() - base);
        service.price_batch_blocking(curve.data() + base, n, out.data());
      }
    });
  }
  while (ready.load() < submitters) std::this_thread::yield();
  const auto start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  return static_cast<double>(submitters * curve.size()) /
         seconds_since(start);
}

/// One open-loop sweep point: `submitters` threads share a fixed global
/// arrival schedule (request k is due at start + k/rate; thread k%S owns
/// it), each submitting single quotes with the mix's deterministic class
/// assignment and harvesting its own resolved futures as it goes (so the
/// outstanding window stays small and latency is read promptly after
/// resolution). A thread that falls behind schedule — e.g. blocked on
/// realtime backpressure — submits back-to-back until it catches up,
/// which is exactly how an overloaded open-loop client behaves.
SoakPoint run_soak_point(const core::ServiceConfig& config,
                         const std::vector<finance::OptionSpec>& curve,
                         const std::vector<double>& reference,
                         std::size_t requests, double rate, double multiplier,
                         core::service::PriorityMix mix,
                         std::size_t submitters,
                         std::chrono::milliseconds timeout) {
  SoakPoint point;
  point.multiplier = multiplier;
  point.target_rate = rate;
  core::PricingService service(config);
  std::vector<ServiceLedger> ledgers(submitters);
  std::vector<std::array<std::vector<std::uint64_t>, core::kPriorityCount>>
      latencies(submitters);
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start;  // written before go releases, read after acquire
  std::vector<std::thread> threads;
  threads.reserve(submitters);
  for (std::size_t sub = 0; sub < submitters; ++sub) {
    threads.emplace_back([&, sub] {
      struct Outstanding {
        std::future<core::Quote> future;
        Clock::time_point issued_at;
        std::uint32_t spec_index;
        core::Priority priority;
      };
      std::deque<Outstanding> pending;
      ServiceLedger& mine = ledgers[sub];
      const auto harvest = [&](bool block) {
        while (!pending.empty()) {
          Outstanding& front = pending.front();
          if (!block && front.future.wait_for(std::chrono::seconds{0}) !=
                            std::future_status::ready) {
            break;
          }
          if (mine.settle(front.priority, front.future,
                          reference[front.spec_index])) {
            latencies[sub][static_cast<std::size_t>(front.priority)]
                .push_back(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - front.issued_at)
                        .count()));
          }
          pending.pop_front();
        }
      };
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t k = sub; k < requests; k += submitters) {
        const auto due =
            start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                        static_cast<double>(k) * 1e9 / rate));
        if (due > Clock::now()) std::this_thread::sleep_until(due);
        const core::Priority priority = mix.pick(k);
        const auto spec_index = static_cast<std::uint32_t>(k % curve.size());
        ++mine[priority].issued;
        const auto issued_at = Clock::now();
        try {
          pending.push_back({service.submit(curve[spec_index], timeout,
                                            /*cache_tag=*/0, priority),
                             issued_at, spec_index, priority});
        } catch (const core::ServiceOverloadError&) {
          ++mine[priority].shed;
        }
        harvest(/*block=*/false);
      }
      harvest(/*block=*/true);
    });
  }
  while (ready.load() < submitters) std::this_thread::yield();
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  point.elapsed_s = seconds_since(start);
  point.stats = service.stats();
  for (std::size_t sub = 0; sub < submitters; ++sub) {
    point.ledger += ledgers[sub];
    for (std::size_t cls = 0; cls < core::kPriorityCount; ++cls) {
      point.latency_ns[cls].insert(point.latency_ns[cls].end(),
                                   latencies[sub][cls].begin(),
                                   latencies[sub][cls].end());
    }
  }
  point.achieved_rate =
      point.elapsed_s > 0.0
          ? static_cast<double>(point.ledger.total().issued) / point.elapsed_s
          : 0.0;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t num_options = 2000;
  std::size_t steps = 256;
  // Pricing workers are CPU-bound simulator threads; more workers than
  // host cores only thrash, so default to 2 where the host can run them.
  std::size_t workers =
      std::max<std::size_t>(1, std::min<std::size_t>(
                                   2, std::thread::hardware_concurrency()));
  core::Target target = core::Target::kCpuReference;
  std::string mode = "curve";
  std::size_t submitters = 8;
  int reps = 2;
  std::string json_out;

  // Soak-mode knobs (all ignored by the other modes).
  std::size_t soak_requests = 1000000;
  std::string sweep_text = "0.5,1,2,4";
  std::string mix_text = "20/50/30";
  double shed_watermark = 0.75;
  long sojourn_target_us = 2000;
  long timeout_ms = 250;
  bool brownout = false;

  bool options_set = false;
  bool steps_set = false;

  // Integer flags are strict: "-5" or "abc" is an error, not a wrapped or
  // zero value. One ceiling fits every field (reps is an int).
  const auto count = [](const std::string& flag, const char* value) {
    const std::optional<std::uint64_t> parsed =
        parse_unsigned(value, 0, std::numeric_limits<int>::max());
    if (!parsed) {
      std::fprintf(stderr, "bad %s '%s' (expected a non-negative integer)\n",
                   flag.c_str(), value);
      std::exit(2);
    }
    return static_cast<std::size_t>(*parsed);
  };
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--options") {
      num_options = count(flag, value);
      options_set = true;
    }
    else if (flag == "--steps") {
      steps = count(flag, value);
      steps_set = true;
    }
    else if (flag == "--workers") workers = count(flag, value);
    else if (flag == "--mode") mode = value;
    else if (flag == "--submitters") submitters = count(flag, value);
    else if (flag == "--reps") reps = static_cast<int>(count(flag, value));
    else if (flag == "--json-out") json_out = value;
    else if (flag == "--requests") soak_requests = count(flag, value);
    else if (flag == "--sweep") sweep_text = value;
    else if (flag == "--priority-mix") mix_text = value;
    else if (flag == "--shed-watermark") shed_watermark = std::strtod(value, nullptr);
    else if (flag == "--sojourn-target-us") sojourn_target_us = static_cast<long>(count(flag, value));
    else if (flag == "--timeout-ms") timeout_ms = static_cast<long>(count(flag, value));
    else if (flag == "--brownout") brownout = count(flag, value) != 0;
    else if (flag == "--target") {
      bool found = false;
      for (core::Target t : core::all_targets()) {
        if (core::to_string(t) == value) { target = t; found = true; }
      }
      if (!found) {
        std::fprintf(stderr, "unknown target '%s'\n", value);
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return 2;
    }
  }
  if (mode != "curve" && mode != "bursty" && mode != "fleet" &&
      mode != "greeks" && mode != "soak") {
    std::fprintf(stderr,
                 "unknown mode '%s' (curve|bursty|fleet|greeks|soak)\n",
                 mode.c_str());
    return 2;
  }
  if (reps < 1) reps = 1;
  if (submitters < 1) submitters = 1;
  // Fleet mode prices through simulated OpenCL backends, which run orders
  // of magnitude slower per option than the native batch pricer — default
  // to a smaller workload so the CI perf-smoke stays quick.
  if (mode == "fleet") {
    if (!options_set) num_options = 512;
    if (!steps_set) steps = 64;
  }
  // Greeks mode prices 4 legs per request plus a host-side lattice front;
  // default to a smaller book so the one-leg-per-submit baseline stays
  // affordable in the CI perf-smoke.
  if (mode == "greeks" && !options_set) num_options = 512;
  // Soak mode is a queueing benchmark, not a lattice benchmark: shallow
  // trees keep the per-option cost low so the arrival sweep exercises
  // admission, shedding, and deadlines rather than raw pricing.
  if (mode == "soak" && !steps_set) steps = 64;

  const auto curve = finance::make_curve_batch(num_options);

  // Reference for parity (and the direct-call throughput figure): one
  // direct run of the whole curve on a private accelerator.
  core::PricingAccelerator direct({target, steps, /*compute_rmse=*/false});
  const auto direct_start = Clock::now();
  const std::vector<double> reference = direct.run(curve).prices;
  const double direct_s = seconds_since(direct_start);
  const double direct_ops = static_cast<double>(curve.size()) / direct_s;

  if (mode == "soak") {
    core::service::PriorityMix mix;
    try {
      mix = core::service::parse_priority_mix(mix_text);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "bad --priority-mix '%s': %s\n", mix_text.c_str(),
                   error.what());
      return 2;
    }
    std::vector<double> sweep;
    for (const char* cursor = sweep_text.c_str(); *cursor != '\0';) {
      char* end = nullptr;
      const double mult = std::strtod(cursor, &end);
      if (end == cursor || mult <= 0.0) {
        std::fprintf(stderr,
                     "bad --sweep '%s' (comma-separated positive capacity "
                     "multipliers)\n",
                     sweep_text.c_str());
        return 2;
      }
      sweep.push_back(mult);
      cursor = end;
      if (*cursor == ',') ++cursor;
    }
    if (sweep.empty() || shed_watermark <= 0.0 || shed_watermark > 1.0 ||
        sojourn_target_us <= 0 || timeout_ms <= 0) {
      std::fprintf(stderr,
                   "soak needs a non-empty --sweep, --shed-watermark in "
                   "(0,1], and positive --sojourn-target-us/--timeout-ms\n");
      return 2;
    }

    // Cache off so every admitted request actually prices (replay would
    // let the overloaded points coast); modest queue and batch so the
    // sweep saturates admission rather than memory.
    core::ServiceConfig base;
    base.targets.assign(workers, target);
    base.steps = steps;
    base.max_batch = 64;
    base.linger = std::chrono::microseconds{100};
    base.cache_capacity = 0;
    base.queue_capacity = 1024;
    core::ServiceConfig armed = base;
    armed.overload.shed_watermark = shed_watermark;
    armed.overload.sojourn_target =
        std::chrono::microseconds{sojourn_target_us};
    armed.overload.brownout = brownout;

    std::printf("=================================================================\n");
    std::printf("Service throughput — overload soak (priority admission + shedding)\n");
    std::printf("  target=%s requests=%zu steps=%zu workers=%zu submitters=%zu\n"
                "  mix=%s timeout=%ldms watermark=%.2f sojourn-target=%ldus "
                "brownout=%s\n",
                core::to_string(target).c_str(), soak_requests, steps, workers,
                submitters, mix_text.c_str(), timeout_ms, shed_watermark,
                sojourn_target_us, brownout ? "on" : "off");
    std::printf("=================================================================\n\n");

    const double capacity = measure_soak_capacity(base, curve, submitters);
    std::printf("uncontended capacity   : %10.1f options/s (closed loop, "
                "shedding disarmed)\n\n",
                capacity);

    const std::size_t per_point =
        std::max<std::size_t>(1, soak_requests / sweep.size());
    std::vector<SoakPoint> points;
    points.reserve(sweep.size());
    for (const double mult : sweep) {
      points.push_back(run_soak_point(
          armed, curve, reference, per_point, mult * capacity, mult, mix,
          submitters, std::chrono::milliseconds{timeout_ms}));
      const SoakPoint& point = points.back();
      const core::service::ClassTally tally = point.ledger.total();
      const auto rt = static_cast<std::size_t>(core::Priority::kRealtime);
      std::printf("x%-5.2f %9.0f req/s : issued %8llu | completed %8llu | "
                  "shed %7llu | timed-out %6llu | rt p99 %8.3f ms\n",
                  point.multiplier, point.target_rate,
                  static_cast<unsigned long long>(tally.issued),
                  static_cast<unsigned long long>(tally.completed),
                  static_cast<unsigned long long>(tally.shed),
                  static_cast<unsigned long long>(tally.timed_out),
                  percentile_ns(point.latency_ns[rt], 99.0) / 1e6);
    }

    // Exact conservation at every point, per class and cross-checked
    // against the service's own counters: nothing is silently dropped.
    bool conserved = true;
    bool ok = true;
    ServiceLedger all;
    for (const SoakPoint& point : points) {
      conserved = conserved && point.ledger.violations(point.stats).empty();
      ok = point.ledger.passes(point.stats, "soak") && ok;
      all += point.ledger;
    }
    const core::service::ClassTally total = all.total();

    const auto rt = static_cast<std::size_t>(core::Priority::kRealtime);
    const double p99_base_ms =
        percentile_ns(points.front().latency_ns[rt], 99.0) / 1e6;
    const double p99_over_ms =
        percentile_ns(points.back().latency_ns[rt], 99.0) / 1e6;
    const bool p99_gate = points.size() >= 2 &&
                          points.back().multiplier > 1.0 &&
                          points.front().latency_ns[rt].size() >= 100 &&
                          points.back().latency_ns[rt].size() >= 100;
    const core::service::ServiceStats& over = points.back().stats;
    std::printf("\nrealtime p99           : %10.3f ms uncontended -> %.3f ms "
                "at x%.1f%s\n",
                p99_base_ms, p99_over_ms, points.back().multiplier,
                p99_gate ? "" : " (gate skipped: too few realtime samples)");
    std::printf("admission block (x%.1f) : p50 %.3f ms, p99 %.3f ms over "
                "%llu stalls\n",
                points.back().multiplier,
                over.admission_block_ns.p50() / 1e6,
                over.admission_block_ns.p99() / 1e6,
                static_cast<unsigned long long>(
                    over.admission_block_ns.count()));
    std::printf("totals                 : issued %llu = completed %llu + "
                "shed %llu + timed-out %llu + failed %llu | browned-out %llu\n\n",
                static_cast<unsigned long long>(total.issued),
                static_cast<unsigned long long>(total.completed),
                static_cast<unsigned long long>(total.shed),
                static_cast<unsigned long long>(total.timed_out),
                static_cast<unsigned long long>(total.failed),
                static_cast<unsigned long long>(total.browned_out));

    const std::string row = format_row(
        "{\"benchmark\":\"service_throughput\",\"mode\":\"soak\","
        "\"target\":\"%s\",\"requests\":%llu,\"steps\":%zu,\"workers\":%zu,"
        "\"submitters\":%zu,\"sweep\":\"%s\",\"priority_mix\":\"%s\","
        "\"timeout_ms\":%ld,\"shed_watermark\":%.3f,"
        "\"sojourn_target_us\":%ld,\"brownout\":%s,"
        "\"capacity_options_per_second\":%.1f,"
        "\"issued\":%llu,\"completed\":%llu,\"shed\":%llu,"
        "\"timed_out\":%llu,\"failed\":%llu,\"brownout_completions\":%llu,"
        "\"realtime_p99_uncontended_ms\":%.4f,"
        "\"realtime_p99_overloaded_ms\":%.4f,"
        "\"admission_block_p99_ms\":%.4f,\"parity_mismatches\":%llu,"
        "\"conserved\":%s}",
        core::to_string(target).c_str(),
        static_cast<unsigned long long>(total.issued), steps, workers,
        submitters, sweep_text.c_str(), mix_text.c_str(), timeout_ms,
        shed_watermark, sojourn_target_us, brownout ? "true" : "false",
        capacity, static_cast<unsigned long long>(total.issued),
        static_cast<unsigned long long>(total.completed),
        static_cast<unsigned long long>(total.shed),
        static_cast<unsigned long long>(total.timed_out),
        static_cast<unsigned long long>(total.failed),
        static_cast<unsigned long long>(total.browned_out), p99_base_ms,
        p99_over_ms, over.admission_block_ns.p99() / 1e6,
        static_cast<unsigned long long>(total.parity_mismatches),
        conserved ? "true" : "false");
    emit_json(row, json_out);

    if (!ok) return 1;
    // The overload gate (reference target): shedding must keep the
    // realtime class's completion latency bounded while the service is
    // driven past capacity. The 25ms slack absorbs scheduler jitter on
    // shared CI runners; on an idle host the margin is far wider.
    if (target == core::Target::kCpuReference && p99_gate &&
        p99_over_ms > 2.0 * p99_base_ms + 25.0) {
      std::fprintf(stderr,
                   "FAIL: realtime p99 ballooned under overload (%.3f ms at "
                   "x%.1f vs %.3f ms uncontended)\n",
                   p99_over_ms, points.back().multiplier, p99_base_ms);
      return 1;
    }
    return 0;
  }

  if (mode == "greeks") {
    std::printf("=================================================================\n");
    std::printf("Service throughput — GreeksService batch expansion vs one leg at a time\n");
    std::printf("  target=%s requests=%zu steps=%zu workers=%zu reps=%d\n",
                core::to_string(target).c_str(), num_options, steps, workers,
                reps);
    std::printf("=================================================================\n\n");

    // Parity must hold bit for bit against the direct reference, and each
    // rep's service must account for all four legs of every request.
    const std::vector<finance::Greeks> expected =
        core::service::direct_greeks(target, steps, curve);
    const std::size_t legs = 4 * curve.size();
    bool ok = true;
    const auto audit = [&](const core::PricingService& service,
                           const std::vector<core::GreeksQuote>& out) {
      ServiceLedger rep_ledger;
      rep_ledger.complete_unchecked(core::Priority::kNormal, legs);
      for (std::size_t i = 0; i < curve.size(); ++i) {
        rep_ledger.expect_parity(core::Priority::kNormal, out[i].greeks,
                                 expected[i]);
      }
      ok = rep_ledger.passes(service.stats(), "greeks") && ok;
    };

    // Cache off on both sides: this measures what fanning 4n legs through
    // the micro-batcher as one job buys, not cache replay.
    core::ServiceConfig base;
    base.targets.assign(workers, target);
    base.steps = steps;
    base.cache_capacity = 0;

    // Baseline: every bump leg is its own NDRange launch.
    core::ServiceConfig one_leg = base;
    one_leg.max_batch = 1;
    one_leg.linger = std::chrono::microseconds{0};
    double baseline_s = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      core::PricingService service(one_leg);
      core::GreeksService greeks(service);
      const auto start = Clock::now();
      const std::vector<core::GreeksQuote> out =
          greeks.greeks_batch_blocking(curve);
      const double elapsed = seconds_since(start);
      if (rep == 0 || elapsed < baseline_s) baseline_s = elapsed;
      audit(service, out);
    }
    const double baseline_ops =
        static_cast<double>(curve.size()) / baseline_s;

    // Batched: the whole book's legs ride the micro-batcher together.
    core::ServiceConfig batched = base;
    batched.max_batch = 256;
    batched.linger = std::chrono::microseconds{200};
    double batched_s = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      core::PricingService service(batched);
      core::GreeksService greeks(service);
      const auto start = Clock::now();
      const std::vector<core::GreeksQuote> out =
          greeks.greeks_batch_blocking(curve);
      const double elapsed = seconds_since(start);
      if (rep == 0 || elapsed < batched_s) batched_s = elapsed;
      audit(service, out);
    }
    const double batched_ops = static_cast<double>(curve.size()) / batched_s;
    const double speedup = batched_ops / baseline_ops;

    std::printf("direct batch run       : %10.1f options/s (%s)\n",
                direct_ops, core::to_string(target).c_str());
    std::printf("one-leg-per-submit     : %10.1f greeks/s (%.3f s)\n",
                baseline_ops, baseline_s);
    std::printf("batched GreeksService  : %10.1f greeks/s (%.3f s, %.2fx)\n\n",
                batched_ops, batched_s, speedup);

    const std::string row = format_row(
        "{\"benchmark\":\"service_throughput\",\"mode\":\"greeks\","
        "\"target\":\"%s\",\"requests\":%zu,\"legs\":%zu,\"steps\":%zu,"
        "\"workers\":%zu,\"reps\":%d,"
        "\"options_per_second\":%.1f,\"baseline_options_per_second\":%.1f,"
        "\"speedup_vs_baseline\":%.3f,\"direct_options_per_second\":%.1f}",
        core::to_string(target).c_str(), num_options, legs, steps,
        workers, reps, batched_ops, baseline_ops, speedup, direct_ops);
    emit_json(row, json_out);

    if (!ok) return 1;
    // The batching gate (reference target): expanding requests through
    // the micro-batcher must not lose to submitting one leg at a time.
    if (target == core::Target::kCpuReference && speedup < 1.0) {
      std::fprintf(stderr,
                   "FAIL: batched Greeks throughput (%.1f/s) below the "
                   "one-leg-per-submit baseline (%.1f/s)\n",
                   batched_ops, baseline_ops);
      return 1;
    }
    return 0;
  }

  if (mode == "fleet") {
    // A deliberately lopsided fleet: the paper's three platform classes
    // side by side. The routed baseline must stay deterministic, so the
    // env knob cannot silently turn the control run into a router run.
    unsetenv("BINOPT_SERVICE_ROUTER");
    const std::vector<core::Target> fleet = {core::Target::kCpuReference,
                                             core::Target::kGpuKernelB,
                                             core::Target::kFpgaKernelB};
    std::printf("=================================================================\n");
    std::printf("Service throughput — heterogeneous fleet, router vs shared queue\n");
    std::printf("  options=%zu steps=%zu reps=%d fleet=", num_options, steps,
                reps);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      std::printf("%s%s", i ? "+" : "", core::to_string(fleet[i]).c_str());
    }
    std::printf("\n=================================================================\n\n");

    // Per-backend parity references: each quote must match the direct run
    // of whichever backend priced it, bit for bit.
    std::map<core::Target, std::vector<double>> refs;
    for (const core::Target t : fleet) {
      core::PricingAccelerator ref({t, steps, /*compute_rmse=*/false});
      refs.emplace(t, ref.run(curve).prices);
    }

    core::ServiceConfig base;
    base.targets = fleet;
    base.steps = steps;
    base.max_batch = 64;
    base.linger = std::chrono::microseconds{200};
    base.cache_capacity = 0;  // dispatch benchmark, not cache replay

    // Control: round-robin — option i to backend i mod 3, each backend a
    // single-target service. The naive dispatch the router replaces: a
    // third of the spike lands on the slowest backend regardless of cost.
    std::vector<std::unique_ptr<core::PricingService>> rr_services;
    for (const core::Target t : fleet) {
      core::ServiceConfig solo = base;
      solo.targets = {t};
      rr_services.push_back(std::make_unique<core::PricingService>(solo));
    }
    const FleetOutcome rr_run =
        run_round_robin(rr_services, curve, refs, reps);
    const double jpo_rr =
        modelled_joules_per_option(fleet, rr_run.served, steps);

    // Context row, not a gate: the single service's shared FIFO (workers
    // pull chunks at their own pace — greedy work stealing).
    core::PricingService shared_service(base);
    const FleetOutcome shared_run =
        run_fleet(shared_service, curve, refs, reps);
    const double jpo_shared =
        modelled_joules_per_option(fleet, shared_run.served, steps);

    // Router, latency policy: feedback-corrected completion-time placement.
    core::ServiceConfig routed = base;
    routed.router.policy = core::service::RouterPolicy::kLatency;
    core::PricingService routed_service(routed);
    const FleetOutcome routed_run =
        run_fleet(routed_service, curve, refs, reps);
    const double jpo_routed =
        modelled_joules_per_option(fleet, routed_run.served, steps);

    // Router, energy policy: steer the fleet toward the most frugal
    // modelled J/option under a watts budget that only the leanest
    // backend(s) satisfy.
    double min_watts = std::numeric_limits<double>::infinity();
    for (const core::Target t : fleet) {
      min_watts = std::min(min_watts,
                           core::PricingAccelerator::modelled_power_watts(t));
    }
    core::ServiceConfig frugal = base;
    frugal.router.policy = core::service::RouterPolicy::kEnergyBudget;
    frugal.router.watts_budget = min_watts + 1.0;
    core::PricingService frugal_service(frugal);
    const FleetOutcome frugal_run =
        run_fleet(frugal_service, curve, refs, reps);
    const double jpo_frugal =
        modelled_joules_per_option(fleet, frugal_run.served, steps);

    const double speedup = routed_run.ops / rr_run.ops;
    std::printf("direct batch run       : %10.1f options/s (%s)\n",
                direct_ops, core::to_string(target).c_str());
    print_fleet("round-robin (control)", fleet, rr_run, jpo_rr);
    print_fleet("shared queue", fleet, shared_run, jpo_shared);
    print_fleet("router, latency", fleet, routed_run, jpo_routed);
    print_fleet("router, energy budget", fleet, frugal_run, jpo_frugal);
    std::printf("router speedup         : %10.2fx vs round-robin | model "
                "fit p50 %.2fx | %llu routed, %llu misrouted\n\n",
                speedup,
                routed_run.stats.predicted_vs_measured.p50() / 1000.0,
                static_cast<unsigned long long>(
                    routed_run.stats.requests_routed),
                static_cast<unsigned long long>(
                    routed_run.stats.requests_misrouted));

    const std::string row = format_row(
        "{\"benchmark\":\"service_throughput\",\"mode\":\"fleet\","
        "\"targets\":\"cpu+gpu+fpga\",\"options\":%zu,\"steps\":%zu,"
        "\"reps\":%d,\"options_per_second\":%.1f,"
        "\"baseline_options_per_second\":%.1f,\"speedup_vs_baseline\":%.3f,"
        "\"shared_queue_options_per_second\":%.1f,"
        "\"joules_per_option\":%.6g,\"baseline_joules_per_option\":%.6g,"
        "\"energy_joules_per_option\":%.6g,\"energy_options_per_second\":%.1f,"
        "\"requests_misrouted\":%llu}",
        num_options, steps, reps, routed_run.ops, rr_run.ops, speedup,
        shared_run.ops, jpo_routed, jpo_rr, jpo_frugal, frugal_run.ops,
        static_cast<unsigned long long>(routed_run.stats.requests_misrouted));
    emit_json(row, json_out);

    if (!rr_run.ok || !shared_run.ok || !routed_run.ok || !frugal_run.ok) {
      return 1;
    }
    // The routing gates: corrected-model placement must not lose to the
    // round-robin dispatch it replaces, and the energy policy must price
    // at least as frugally (modelled J/option) as the round-robin mix.
    if (speedup < 1.0) {
      std::fprintf(stderr,
                   "FAIL: router throughput (%.1f options/s) below the "
                   "round-robin control (%.1f options/s)\n",
                   routed_run.ops, rr_run.ops);
      return 1;
    }
    if (jpo_frugal > jpo_rr) {
      std::fprintf(stderr,
                   "FAIL: energy-budget policy (%.6g J/option) costs more "
                   "than the round-robin mix (%.6g J/option)\n",
                   jpo_frugal, jpo_rr);
      return 1;
    }
    return 0;
  }

  if (mode == "bursty") {
    std::printf("=================================================================\n");
    std::printf("Service throughput — bursty (market-open spike) arrivals\n");
    std::printf("  target=%s options=%zu steps=%zu workers=%zu submitters=%zu reps=%d\n",
                core::to_string(target).c_str(), num_options, steps, workers,
                submitters, reps);
    std::printf("=================================================================\n\n");

    // Cache off: bursty mode measures the pricing hot path, not replay.
    core::ServiceConfig base;
    base.targets.assign(workers, target);
    base.steps = steps;
    base.max_batch = 256;
    base.linger = std::chrono::microseconds{200};
    base.cache_capacity = 0;

    // One-variable A/B: the scalar CPU kernel, then runtime SIMD dispatch.
    // Identical service, traffic, workload, and batching parameters.
    finance::BatchPricer::set_simd_override(0);
    const BurstyOutcome scalar_run =
        run_bursty(base, curve, reference, submitters, reps);
    finance::BatchPricer::set_simd_override(-1);
    const BurstyOutcome simd_run =
        run_bursty(base, curve, reference, submitters, reps);

    const double speedup = simd_run.spike_ops / scalar_run.spike_ops;
    std::printf("direct batch run       : %10.1f options/s (%.3f s)\n",
                direct_ops, direct_s);
    print_bursty("scalar kernel", scalar_run);
    print_bursty("simd kernel", simd_run);
    std::printf("spike speedup          : %10.2fx (simd %s)\n\n", speedup,
                finance::BatchPricer::simd_enabled() ? "on" : "off");

    const std::string row = format_row(
        "{\"benchmark\":\"service_throughput\",\"mode\":\"bursty\","
        "\"target\":\"%s\",\"options\":%zu,\"steps\":%zu,\"workers\":%zu,"
        "\"submitters\":%zu,\"reps\":%d,\"simd\":%s,"
        "\"options_per_second\":%.1f,\"baseline_options_per_second\":%.1f,"
        "\"speedup_vs_baseline\":%.3f,\"direct_options_per_second\":%.1f,"
        "\"latency_p50_ms\":%.4f,\"latency_p99_ms\":%.4f,"
        "\"latency_p999_ms\":%.4f,"
        "\"baseline_latency_p50_ms\":%.4f,\"baseline_latency_p99_ms\":%.4f,"
        "\"baseline_latency_p999_ms\":%.4f}",
        core::to_string(target).c_str(), num_options, steps, workers,
        submitters, reps,
        finance::BatchPricer::simd_enabled() ? "true" : "false",
        simd_run.spike_ops, scalar_run.spike_ops, speedup, direct_ops,
        simd_run.stats.request_latency_ns.p50() / 1e6,
        simd_run.stats.request_latency_ns.p99() / 1e6,
        simd_run.stats.request_latency_ns.p999() / 1e6,
        scalar_run.stats.request_latency_ns.p50() / 1e6,
        scalar_run.stats.request_latency_ns.p99() / 1e6,
        scalar_run.stats.request_latency_ns.p999() / 1e6);
    emit_json(row, json_out);

    if (!scalar_run.ok || !simd_run.ok) return 1;
    // The kernel gate (reference target, where the SIMD BatchPricer runs):
    // the SIMD kernel must not lose to the scalar one. Skipped on hosts
    // without SIMD, where both runs are scalar.
    if (target == core::Target::kCpuReference &&
        finance::BatchPricer::simd_enabled() && speedup < 1.0) {
      std::fprintf(stderr,
                   "FAIL: simd spike throughput (%.1f options/s) below "
                   "the scalar kernel (%.1f options/s)\n",
                   simd_run.spike_ops, scalar_run.spike_ops);
      return 1;
    }
    return 0;
  }

  std::printf("=================================================================\n");
  std::printf("Service throughput — batched PricingService vs direct calls\n");
  std::printf("  target=%s options=%zu steps=%zu workers=%zu\n",
              core::to_string(target).c_str(), num_options, steps, workers);
  std::printf("=================================================================\n\n");

  // Each configuration is timed best-of-`reps` with a fresh service (and
  // thus a cold cache) per repetition: scheduler noise only ever slows a
  // pass down, so the faster repetition is the better estimate of real cost.
  // Every pass is held to the ledger against the service that priced it.
  bool ok = true;
  const auto audit =
      [&](const core::PricingService& service,
          std::initializer_list<const std::vector<double>*> passes) {
        ServiceLedger ledger;
        for (const std::vector<double>* prices : passes) {
          ledger.complete_batch(core::Priority::kNormal, *prices, reference);
        }
        ok = ledger.passes(service.stats(), "curve") && ok;
      };
  std::vector<double> cold;

  // Baseline: the same service path with batching disabled — every option
  // is its own NDRange launch, paying full queue/launch overhead per quote.
  // Same submission machinery (and cache costs) on both sides, so the
  // comparison isolates exactly what micro-batching buys.
  core::ServiceConfig one_at_a_time;
  one_at_a_time.targets.assign(workers, target);
  one_at_a_time.steps = steps;
  one_at_a_time.max_batch = 1;
  one_at_a_time.linger = std::chrono::microseconds{0};
  one_at_a_time.cache_capacity = 4096;
  double baseline_s = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    core::PricingService service(one_at_a_time);
    const auto start = Clock::now();
    const std::vector<double> prices = service.submit_batch(curve).get();
    const double elapsed = seconds_since(start);
    if (rep == 0 || elapsed < baseline_s) baseline_s = elapsed;
    audit(service, {&prices});
  }
  const double baseline_ops = static_cast<double>(curve.size()) / baseline_s;

  core::ServiceConfig config;
  config.targets.assign(workers, target);
  config.steps = steps;
  config.max_batch = 256;
  config.linger = std::chrono::microseconds{200};
  config.cache_capacity = 4096;

  // Cold passes: every option priced through micro-batched shards. The last
  // repetition's service stays alive for the warm (cached) pass and stats.
  double cold_s = 0.0;
  std::optional<core::PricingService> service;
  for (int rep = 0; rep < reps; ++rep) {
    service.emplace(config);
    const auto start = Clock::now();
    cold = service->submit_batch(curve).get();
    const double elapsed = seconds_since(start);
    if (rep == 0 || elapsed < cold_s) cold_s = elapsed;
    if (rep + 1 < reps) audit(*service, {&cold});
  }
  const double cold_ops = static_cast<double>(curve.size()) / cold_s;

  // Warm pass: the same curve on the next "market tick" — cache replay.
  const auto warm_start = Clock::now();
  const std::vector<double> warm = service->submit_batch(curve).get();
  const double warm_s = seconds_since(warm_start);
  const double warm_ops = static_cast<double>(curve.size()) / warm_s;
  audit(*service, {&cold, &warm});

  const auto stats = service->stats();
  const double occupancy = stats.batch_occupancy(config.max_batch);

  std::printf("direct batch run       : %10.1f options/s (%.3f s)\n",
              direct_ops, direct_s);
  std::printf("one-at-a-time baseline : %10.1f options/s (%.3f s)\n",
              baseline_ops, baseline_s);
  std::printf("service, cold curve    : %10.1f options/s (%.3f s, %.2fx)\n",
              cold_ops, cold_s, cold_ops / baseline_ops);
  std::printf("service, warm curve    : %10.1f options/s (%.3f s, cached)\n",
              warm_ops, warm_s);
  std::printf("batches launched       : %llu (occupancy %.1f%%)\n",
              static_cast<unsigned long long>(stats.batches_launched),
              100.0 * occupancy);
  std::printf("cache                  : %llu hits / %llu misses (%.1f%% hit rate)\n",
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              100.0 * stats.cache_hit_rate());
  std::printf("request latency        : p50 %.3f ms, p95 %.3f ms, "
              "p99 %.3f ms, p999 %.3f ms (mean %.3f ms)\n",
              stats.request_latency_ns.p50() / 1e6,
              stats.request_latency_ns.p95() / 1e6,
              stats.request_latency_ns.p99() / 1e6,
              stats.request_latency_ns.p999() / 1e6,
              stats.request_latency_ns.mean() / 1e6);
  std::printf("queue wait             : p50 %.3f ms, p95 %.3f ms, "
              "p99 %.3f ms\n\n",
              stats.queue_wait_ns.p50() / 1e6,
              stats.queue_wait_ns.p95() / 1e6,
              stats.queue_wait_ns.p99() / 1e6);

  const std::string row = format_row(
      "{\"benchmark\":\"service_throughput\",\"mode\":\"curve\","
      "\"target\":\"%s\","
      "\"options\":%zu,\"steps\":%zu,\"workers\":%zu,"
      "\"options_per_second\":%.1f,\"baseline_options_per_second\":%.1f,"
      "\"speedup_vs_baseline\":%.3f,\"direct_options_per_second\":%.1f,"
      "\"warm_options_per_second\":%.1f,"
      "\"cache_hit_rate\":%.4f,\"batch_occupancy\":%.4f,"
      "\"latency_p50_ms\":%.4f,\"latency_p95_ms\":%.4f,"
      "\"latency_p99_ms\":%.4f,\"latency_p999_ms\":%.4f,"
      "\"latency_mean_ms\":%.4f,"
      "\"queue_wait_p99_ms\":%.4f}",
      core::to_string(target).c_str(), num_options, steps, workers, cold_ops,
      baseline_ops, cold_ops / baseline_ops, direct_ops, warm_ops,
      stats.cache_hit_rate(), occupancy,
      stats.request_latency_ns.p50() / 1e6,
      stats.request_latency_ns.p95() / 1e6,
      stats.request_latency_ns.p99() / 1e6,
      stats.request_latency_ns.p999() / 1e6,
      stats.request_latency_ns.mean() / 1e6,
      stats.queue_wait_ns.p99() / 1e6);
  emit_json(row, json_out);

  if (!ok) return 1;
  // Throughput gate on the canonical workload (reference target): batching
  // must beat submitting one option at a time. Simulator-heavy kernel
  // targets trade launch amortization against working-set locality, so
  // they report but do not gate.
  if (target == core::Target::kCpuReference && cold_ops < baseline_ops) {
    std::fprintf(stderr,
                 "FAIL: batched throughput (%.1f options/s) below the "
                 "one-at-a-time baseline (%.1f options/s)\n",
                 cold_ops, baseline_ops);
    return 1;
  }
  return 0;
}
