// binopt — command-line pricer over the accelerated stack.
//
// Price a single American/European option on any modelled target:
//
//   binopt_cli --spot 100 --strike 105 --rate 0.05 --vol 0.25
//              --maturity 0.75 --type put --style american
//              --steps 1024 --target kernel-b-fpga
//
// Prints the price, the accuracy vs the reference software, and the
// modelled throughput/power/energy of the chosen accelerator. Run with
// --help for the full flag list, --list-targets for the target names.
//
// `binopt_cli --check` instead runs both paper kernels under the runtime
// hazard analyzer (shadow-memory race/out-of-bounds/uninitialized-read
// detection, see src/ocl/analyzer/) plus the static IR lint, and exits
// non-zero if any diagnostic fires.
//
// `binopt_cli serve-bench` drives a volatility-curve workload through the
// async PricingService (concurrent submitters, micro-batching, quote
// cache) and exits non-zero if any served price differs bitwise from a
// direct PricingAccelerator run of the same curve or the service ledger
// (src/core/service/ledger.h) does not balance.
//
// `binopt_cli chaos` prices a curve through the PricingService while a
// deterministic fault plan (DESIGN.md §2.5) injects device failures into
// every backend worker, and exits non-zero unless every price is bitwise
// identical to the fault-free run, the service ledger balances (no request
// lost, every shed counted per class), and any quarantined backend
// recovered.
//
// `binopt_cli greeks-bench` prices a book of Greeks requests through the
// GreeksService (DESIGN.md §2.9) on every backend target — cold and again
// as a cache replay — and exits non-zero unless every assembled Greeks is
// bitwise identical to a direct per-target reference (same lattice front,
// same bump set, legs priced by a private accelerator run), and, on the
// CPU reference, to finance::binomial_greeks itself.
//
// `binopt_cli sweep` runs a portfolio scenario sweep (book x spot/vol/rate
// shock grid) through the GreeksService three times — cold, same epoch
// (must re-price nothing), and a bumped epoch (must re-price everything) —
// prints the P&L/VaR summary, and exits non-zero if the epoch-cache or
// request-conservation gates fail.
//
// `binopt_cli trace` runs both paper kernels on a multi-compute-unit
// device plus a short PricingService session with the tracer attached and
// writes the whole session as Chrome trace_event JSON (open the file in
// chrome://tracing or https://ui.perfetto.dev).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/parse.h"
#include "core/accelerator.h"
#include "core/service/greeks_service.h"
#include "core/service/ledger.h"
#include "core/service/pricing_service.h"
#include "finance/greeks.h"
#include "finance/option.h"
#include "finance/workload.h"
#include "fpga/ii_analysis.h"
#include "kernels/ir_builders.h"
#include "kernels/kernel_a.h"
#include "kernels/kernel_b.h"
#include "ocl/analyzer/ir_lint.h"
#include "ocl/analyzer/symbolic/verifier.h"
#include "ocl/device.h"
#include "ocl/faults/fault_plan.h"
#include "ocl/trace/tracer.h"

namespace {

using namespace binopt;

[[noreturn]] void fail(const std::string& message);

void print_usage() {
  std::printf(
      "usage: binopt_cli [flags]\n"
      "  --spot <S0>        asset price            (default 100)\n"
      "  --strike <K>       strike price           (default 100)\n"
      "  --rate <r>         risk-free rate         (default 0.05)\n"
      "  --div <q>          dividend yield         (default 0)\n"
      "  --vol <sigma>      volatility             (default 0.20)\n"
      "  --maturity <T>     years to expiry        (default 1.0)\n"
      "  --type <call|put>  option right           (default call)\n"
      "  --style <american|european>               (default american)\n"
      "  --steps <N>        tree steps             (default 1024)\n"
      "  --target <name>    accelerator target     (default cpu reference)\n"
      "  --list-targets     print target names and exit\n"
      "  --check            run the symbolic kernel verifier + static IR\n"
      "                     lint + the dynamic hazard analyzer over both\n"
      "                     paper kernels and exit non-zero on any error\n"
      "                     diagnostic (--steps selects tree depth)\n"
      "  --static-only      with --check: proofs only, execute nothing —\n"
      "                     the verifier certifies every kernel variant\n"
      "                     parametrically across all device-admissible\n"
      "                     launch shapes\n"
      "  --report-json <p>  with --check: write a machine-readable report\n"
      "                     (certified variants, proofs, counterexamples,\n"
      "                     II bounds) to <p>\n"
      "  --help             this text\n"
      "\n"
      "subcommand: binopt_cli serve-bench [flags]\n"
      "  Drives a volatility-curve workload through the async\n"
      "  PricingService and checks every served price bitwise against a\n"
      "  direct accelerator run. Exits non-zero on any mismatch.\n"
      "  --options <N>      curve size             (default 2000)\n"
      "  --steps <N>        tree steps             (default 256)\n"
      "  --target <name>    accelerator target     (default cpu reference)\n"
      "  --workers <N>      backend worker count   (default min(2, cores))\n"
      "  --submitters <N>   client threads         (default 4)\n"
      "  --max-batch <N>    micro-batch ceiling    (default 256)\n"
      "  --linger-us <N>    batch linger window    (default 200)\n"
      "  --cache <N>        quote-cache capacity   (default 4096)\n"
      "  --router [policy]  enable the fleet router (DESIGN.md 2.8):\n"
      "                     latency (default when bare) or energy;\n"
      "                     BINOPT_SERVICE_ROUTER sets the same knob\n"
      "  --watts-budget <W> with --router energy: prefer backends whose\n"
      "                     modelled draw fits under W watts\n"
      "  --shed-watermark <f> arm priority admission (DESIGN.md 2.10):\n"
      "                     kBatch sheds above f*queue_capacity, kNormal\n"
      "                     midway to full; BINOPT_SERVICE_SHED_WATERMARK\n"
      "                     sets the same knob (default off)\n"
      "  --sojourn-target-us <N> arm the CoDel-style watermark controller\n"
      "                     at an N-microsecond queue-sojourn target;\n"
      "                     BINOPT_SERVICE_SOJOURN_TARGET_US matches\n"
      "  --priority-mix <r/n/b> percent of submissions per class, e.g.\n"
      "                     20/50/30 (default 0/100/0); shed submissions\n"
      "                     are retried until admitted\n"
      "  --brownout <0|1>   with overload armed: price shed-eligible\n"
      "                     kBatch work on the cheaper sibling config,\n"
      "                     stamping Quote::browned_out (default 0)\n"
      "\n"
      "subcommand: binopt_cli chaos [flags]\n"
      "  Prices a volatility curve through the PricingService while a\n"
      "  fault plan (DESIGN.md 2.5) injects failures into every backend\n"
      "  worker, then asserts bitwise price parity with the fault-free\n"
      "  direct run, zero lost requests, and quarantine -> recovery when\n"
      "  a fatal fault fired. Exits non-zero on any violation.\n"
      "  --options <N>      curve size             (default 256)\n"
      "  --steps <N>        tree steps             (default 128)\n"
      "  --target <name>    accelerator target     (default kernel-b-fpga;\n"
      "                     must be an OpenCL target, not cpu)\n"
      "  --workers <N>      backend worker count   (default 2)\n"
      "  --faults <spec>    fault plan for every worker (default\n"
      "                     'device-lost@1;transient@3x2;seed=7')\n"
      "  --router [policy]  route batches through the fleet router while\n"
      "                     the faults fire: latency (default when bare)\n"
      "                     or energy — prices must stay bit-identical\n"
      "  --watts-budget <W> with --router energy: watts ceiling\n"
      "  --queue <N>        admission queue capacity (default service\n"
      "                     default; shrink it to make the storm shed)\n"
      "  --shed-watermark <f> arm priority admission during the storm;\n"
      "                     shed submissions are counted, not retried —\n"
      "                     conservation must hold with sheds included\n"
      "  --sojourn-target-us <N> arm the watermark controller\n"
      "  --priority-mix <r/n/b> percent of submissions per class\n"
      "\n"
      "subcommand: binopt_cli greeks-bench [flags]\n"
      "  Prices a book of Greeks requests through the GreeksService on\n"
      "  every backend target (or one with --target), cold and as a cache\n"
      "  replay, and checks each assembled Greeks bitwise against a direct\n"
      "  per-target reference (and against binomial_greeks on the CPU\n"
      "  reference). Exits non-zero on any mismatch.\n"
      "  --requests <N>     Greeks requests        (default 32)\n"
      "  --steps <N>        tree steps             (default 128)\n"
      "  --cache <N>        quote-cache capacity   (default 4096)\n"
      "  --target <name>    check one target only  (default: all)\n"
      "\n"
      "subcommand: binopt_cli sweep [flags]\n"
      "  Runs a portfolio scenario sweep (book x spot/vol/rate shocks)\n"
      "  through the GreeksService three times — cold, unchanged epoch\n"
      "  (gate: zero options re-priced), bumped epoch (gate: everything\n"
      "  re-priced) — and prints the P&L/VaR summary. Exits non-zero on\n"
      "  any epoch-cache or conservation violation.\n"
      "  --book <N>         portfolio size         (default 64)\n"
      "  --spots <N>        spot-shock grid points (default 5)\n"
      "  --vols <N>         vol-shock grid points  (default 3)\n"
      "  --rates <N>        rate-shock grid points (default 3)\n"
      "  --steps <N>        tree steps             (default 128)\n"
      "  --cache <N>        quote-cache capacity   (default 16384)\n"
      "  --target <name>    accelerator target     (default cpu reference)\n"
      "\n"
      "subcommand: binopt_cli trace [flags]\n"
      "  Runs kernels IV.A and IV.B on a 4-compute-unit device plus a\n"
      "  short PricingService session with the tracer attached, and\n"
      "  writes the session as Chrome trace_event JSON for\n"
      "  chrome://tracing / Perfetto.\n"
      "  --out <path>       output file            (default trace.json)\n"
      "  --options <N>      options per workload   (default 8)\n"
      "  --steps <N>        tree steps             (default 64)\n");
}

/// `--router` takes an OPTIONAL policy value: bare `--router` means
/// latency; `--router energy` selects the watts-budget policy. The value
/// is consumed only when the next argv token is not itself a flag.
core::service::RouterPolicy parse_router_flag(int argc, char** argv, int& i) {
  if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
    return core::service::parse_router_policy(argv[++i]);
  }
  return core::service::RouterPolicy::kLatency;
}

/// Routing summary for serve-bench/chaos: placement counters, per-backend
/// attribution, and the model-vs-measured fit the feedback loop converges
/// on. Prints nothing when routing is off. Mirrors the service's policy
/// resolution: an explicit --router wins, kOff consults the env knob.
void print_router_summary(const core::service::ServiceStats& stats,
                          const core::ServiceConfig& config) {
  core::service::RouterPolicy policy = config.router.policy;
  if (policy == core::service::RouterPolicy::kOff) {
    policy = core::service::router_policy_from_env();
  }
  if (policy == core::service::RouterPolicy::kOff) return;
  std::printf("  router    : policy %s, %llu routed, %llu misrouted\n",
              core::service::to_string(policy).c_str(),
              static_cast<unsigned long long>(stats.requests_routed),
              static_cast<unsigned long long>(stats.requests_misrouted));
  for (std::size_t i = 0; i < config.targets.size(); ++i) {
    const std::uint64_t routed = i < stats.routed_by_backend.size()
                                     ? stats.routed_by_backend[i]
                                     : 0;
    const std::uint64_t served = i < stats.served_by_backend.size()
                                     ? stats.served_by_backend[i]
                                     : 0;
    std::printf("    backend %zu (%s): %llu routed, %llu served\n", i,
                core::to_string(config.targets[i]).c_str(),
                static_cast<unsigned long long>(routed),
                static_cast<unsigned long long>(served));
  }
  if (stats.predicted_vs_measured.count() > 0) {
    std::printf("  model fit : measured/predicted p50 %.2fx over %llu "
                "launches\n",
                stats.predicted_vs_measured.p50() / 1000.0,
                static_cast<unsigned long long>(
                    stats.predicted_vs_measured.count()));
  }
}

/// The serve-bench mode: price one volatility curve three ways — directly
/// on the accelerator (the parity reference), through the service from
/// concurrent submitter threads, and again as one batch to replay the
/// cache — then print throughput and service counters.
int run_serve_bench(std::size_t num_options, std::size_t steps,
                    core::Target target, std::size_t workers,
                    std::size_t submitters, std::size_t max_batch,
                    std::size_t linger_us, std::size_t cache_capacity,
                    core::service::RouterConfig router,
                    core::service::OverloadConfig overload,
                    core::service::PriorityMix mix) {
  using Clock = std::chrono::steady_clock;
  const auto curve = finance::make_curve_batch(num_options);

  core::PricingAccelerator direct({target, steps, /*compute_rmse=*/false});
  const std::vector<double> reference = direct.run(curve).prices;

  core::ServiceConfig config;
  config.targets.assign(workers, target);
  config.steps = steps;
  config.max_batch = max_batch;
  config.linger = std::chrono::microseconds{linger_us};
  config.cache_capacity = cache_capacity;
  config.router = router;
  config.overload = overload;
  core::PricingService service(config);

  std::printf("serve-bench: %zu options, %zu steps, target %s\n",
              num_options, steps, core::to_string(target).c_str());
  std::printf("  %zu worker(s), %zu submitter(s), max_batch %zu, "
              "linger %zu us, cache %zu, %s\n",
              workers, submitters, max_batch, linger_us, cache_capacity,
              service.config().router.enabled() ? "per-worker rings"
                                                : "shared ring");

  // Pass 1: concurrent submitters stream disjoint slices of the curve as
  // single-quote submissions — the micro-batcher has to reassemble them.
  // With the overload layer armed, each submission carries its mix-assigned
  // priority class and a shed submission is retried after a short backoff
  // (the canonical client response to ServiceOverloadError), so the parity
  // check covers every index. Each submitter keeps its own ledger.
  std::vector<core::service::ServiceLedger> ledgers(submitters);
  const auto cold_start = Clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(submitters);
    for (std::size_t t = 0; t < submitters; ++t) {
      threads.emplace_back([&, t] {
        core::service::ServiceLedger& mine = ledgers[t];
        for (std::size_t i = t; i < curve.size(); i += submitters) {
          const core::Priority priority = mix.pick(i);
          for (;;) {
            ++mine[priority].issued;
            try {
              // Negative timeout = no deadline; only the class changes.
              std::future<core::Quote> future =
                  service.submit(curve[i], std::chrono::milliseconds{-1},
                                 /*cache_tag=*/0, priority);
              mine.settle(priority, future, reference[i]);
              break;
            } catch (const core::ServiceOverloadError&) {
              ++mine[priority].shed;
              std::this_thread::sleep_for(std::chrono::microseconds{200});
            }
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  const double cold_s =
      std::chrono::duration<double>(Clock::now() - cold_start).count();

  // Pass 2: the whole curve as one batch on the next "tick" — every quote
  // should now replay from the cache (when the cache is enabled).
  const auto warm_start = Clock::now();
  const std::vector<double> warm = service.submit_batch(curve).get();
  const double warm_s =
      std::chrono::duration<double>(Clock::now() - warm_start).count();

  core::service::ServiceLedger ledger;
  for (const core::service::ServiceLedger& mine : ledgers) ledger += mine;
  ledger.complete_batch(core::Priority::kNormal, warm, reference);
  const core::service::ClassTally total = ledger.total();
  const auto stats = service.stats();
  std::printf("  cold pass : %10.1f options/s (%.3f s)\n",
              static_cast<double>(curve.size()) / cold_s, cold_s);
  std::printf("  warm pass : %10.1f options/s (%.3f s)\n",
              static_cast<double>(curve.size()) / warm_s, warm_s);
  std::printf("  batches   : %llu launched, occupancy %.1f%%\n",
              static_cast<unsigned long long>(stats.batches_launched),
              100.0 * stats.batch_occupancy(config.max_batch));
  std::printf("  cache     : %llu hits / %llu misses (%.1f%% hit rate)\n",
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              100.0 * stats.cache_hit_rate());
  std::printf("  latency   : p50 %.3f ms, p95 %.3f ms, p99 %.3f ms "
              "(mean %.3f ms)\n",
              stats.request_latency_ns.p50() / 1e6,
              stats.request_latency_ns.p95() / 1e6,
              stats.request_latency_ns.p99() / 1e6,
              stats.request_latency_ns.mean() / 1e6);
  std::printf("  queue wait: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n",
              stats.queue_wait_ns.p50() / 1e6,
              stats.queue_wait_ns.p95() / 1e6,
              stats.queue_wait_ns.p99() / 1e6);
  // Distinct from queue wait: how long submitters stalled on admission
  // backpressure before a queue slot freed (count() folds in the
  // never-blocked admissions as zero samples).
  std::printf("  adm block : p50 %.3f ms, p99 %.3f ms over %llu "
              "admissions\n",
              stats.admission_block_ns.p50() / 1e6,
              stats.admission_block_ns.p99() / 1e6,
              static_cast<unsigned long long>(
                  stats.admission_block_ns.count()));
  if (overload.enabled()) {
    std::printf("  overload  : %llu normal / %llu batch shed (%llu client "
                "retries), %llu admission timeouts, %llu eager drops, %llu "
                "browned-out\n",
                static_cast<unsigned long long>(stats.requests_shed_normal),
                static_cast<unsigned long long>(stats.requests_shed_batch),
                static_cast<unsigned long long>(total.shed),
                static_cast<unsigned long long>(stats.admission_timeouts),
                static_cast<unsigned long long>(stats.eager_deadline_drops),
                static_cast<unsigned long long>(stats.brownout_completions));
  }
  print_router_summary(stats, config);

  // Browned-out quotes are excluded from bitwise parity by contract (the
  // Quote says so itself); everything else must match to the last bit.
  if (!ledger.passes(stats, "serve-bench")) return 1;
  std::printf("serve-bench passed: %zu prices bit-identical to the direct "
              "run on both passes (%llu browned-out, excluded by contract)\n",
              curve.size(),
              static_cast<unsigned long long>(total.browned_out));
  return 0;
}

/// The chaos mode: price one curve through the service while every backend
/// worker runs under an injected fault plan, then hold the service to the
/// robustness contract — bitwise parity with the fault-free direct run,
/// zero lost or double-resolved requests, and (when a fatal fault fired)
/// a full quarantine -> probe -> recovery cycle visible in the stats.
int run_chaos(std::size_t num_options, std::size_t steps, core::Target target,
              std::size_t workers, const std::string& fault_spec,
              core::service::RouterConfig router,
              core::service::OverloadConfig overload,
              core::service::PriorityMix mix, std::size_t queue_capacity) {
  using Clock = std::chrono::steady_clock;
  if (target == core::Target::kCpuReference ||
      target == core::Target::kCpuReferenceSingle) {
    fail("chaos needs an OpenCL-simulated target (the CPU reference has no "
         "device to fault); try --target kernel-b-fpga");
  }
  const ocl::faults::FaultPlan plan = ocl::faults::parse_fault_plan(fault_spec);
  const auto curve = finance::make_curve_batch(num_options);

  core::PricingAccelerator direct({target, steps, /*compute_rmse=*/false});
  const std::vector<double> reference = direct.run(curve).prices;

  core::ServiceConfig config;
  config.targets.assign(workers, target);
  config.steps = steps;
  config.max_batch = 64;
  config.linger = std::chrono::microseconds{0};
  config.retry.max_attempts = 10;
  config.retry.base_backoff = std::chrono::microseconds{200};
  config.retry.max_backoff = std::chrono::microseconds{5'000};
  config.health.probe_backoff = std::chrono::microseconds{2'000};
  config.health.max_probe_backoff = std::chrono::microseconds{50'000};
  config.worker_fault_plans.assign(workers, plan);
  config.router = router;
  config.overload = overload;
  if (queue_capacity > 0) config.queue_capacity = queue_capacity;
  core::PricingService service(config);

  std::printf("chaos: %zu options, %zu steps, target %s, %zu worker(s)\n",
              num_options, steps, core::to_string(target).c_str(), workers);
  std::printf("  fault plan: %s\n", fault_spec.c_str());
  if (overload.enabled()) {
    std::printf("  shedding  : armed (watermark %.2f, queue %zu) — sheds "
                "count toward conservation, not toward failures\n",
                overload.shed_watermark, config.queue_capacity);
  }

  // Single-quote submissions: every request has its own future, so a lost
  // request hangs .get() (never happens) and a double resolution would
  // throw inside the service — conservation is checked per request. With
  // shedding armed a submission may instead be refused at admission with
  // ServiceOverloadError before a future exists; those are tallied per
  // class and must still balance the ledger.
  const auto start = Clock::now();
  core::service::ServiceLedger ledger;
  std::vector<std::tuple<std::size_t, core::Priority,
                         std::future<core::Quote>>>
      futures;
  futures.reserve(curve.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const core::Priority priority = mix.pick(i);
    ++ledger[priority].issued;
    try {
      futures.emplace_back(
          i, priority,
          service.submit(curve[i], std::chrono::milliseconds{-1},
                         /*cache_tag=*/0, priority));
    } catch (const core::ServiceOverloadError&) {
      ++ledger[priority].shed;
    }
  }
  for (auto& [index, priority, future] : futures) {
    ledger.settle(priority, future, reference[index]);
  }
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  const core::service::ClassTally total = ledger.total();
  const auto stats = service.stats();
  std::printf("  served    : %10.1f options/s (%.3f s)\n",
              static_cast<double>(curve.size()) / elapsed_s, elapsed_s);
  std::printf("  faults    : %llu retries, %llu failovers\n",
              static_cast<unsigned long long>(stats.retries),
              static_cast<unsigned long long>(stats.failovers));
  std::printf("  health    : %llu quarantine(s), %llu probe(s) "
              "(%llu ok / %llu failed), %llu recovery(ies)\n",
              static_cast<unsigned long long>(stats.quarantines_entered),
              static_cast<unsigned long long>(stats.probes_launched),
              static_cast<unsigned long long>(stats.probes_succeeded),
              static_cast<unsigned long long>(stats.probes_failed),
              static_cast<unsigned long long>(stats.recoveries));
  if (stats.recoveries > 0) {
    std::printf("  recovery  : p50 %.3f ms time-to-recovery\n",
                stats.time_to_recovery_ns.p50() / 1e6);
  }
  if (overload.enabled()) {
    std::printf("  overload  : %llu shed at admission (%llu normal / %llu "
                "batch), %llu eager drops, %llu browned-out\n",
                static_cast<unsigned long long>(total.shed),
                static_cast<unsigned long long>(stats.requests_shed_normal),
                static_cast<unsigned long long>(stats.requests_shed_batch),
                static_cast<unsigned long long>(stats.eager_deadline_drops),
                static_cast<unsigned long long>(stats.brownout_completions));
  }
  print_router_summary(stats, config);

  // The reference is the fault-free direct run; a failed request means the
  // retry budget ran out under this plan.
  bool ok = ledger.passes(stats, "chaos");
  if (stats.quarantines_entered > 0 && stats.recoveries == 0) {
    std::fprintf(stderr, "chaos FAILED: a backend was quarantined and "
                         "never recovered\n");
    ok = false;
  }
  if (!ok) return 1;
  std::printf("chaos passed: %llu prices bit-identical under injected "
              "faults, zero requests lost (%llu shed at admission, all "
              "accounted)\n",
              static_cast<unsigned long long>(total.completed),
              static_cast<unsigned long long>(total.shed));
  return 0;
}

/// The greeks-bench mode: for each target, build the direct reference
/// (core::service::direct_greeks), then hold the GreeksService to bitwise
/// parity on a cold pass and a cache-replay pass, and its four legs per
/// request to the ledger. On the CPU reference the service must
/// additionally match finance::binomial_greeks literally.
int run_greeks_bench(std::size_t num_requests, std::size_t steps,
                     std::size_t cache_capacity,
                     const std::vector<core::Target>& targets) {
  using Clock = std::chrono::steady_clock;
  const auto book = finance::make_curve_batch(num_requests);

  std::printf("greeks-bench: %zu requests (%zu legs), %zu steps, cache %zu\n",
              book.size(), 4 * book.size(), steps, cache_capacity);

  bool ok = true;
  for (const core::Target target : targets) {
    const std::vector<finance::Greeks> reference =
        core::service::direct_greeks(target, steps, book);

    core::ServiceConfig config;
    config.targets = {target};
    config.steps = steps;
    config.cache_capacity = cache_capacity;
    core::PricingService service(config);
    core::GreeksService greeks(service);

    const auto cold_start = Clock::now();
    const std::vector<core::GreeksQuote> cold =
        greeks.greeks_batch_blocking(book);
    const double cold_s =
        std::chrono::duration<double>(Clock::now() - cold_start).count();
    const auto warm_start = Clock::now();
    const std::vector<core::GreeksQuote> warm =
        greeks.greeks_batch_blocking(book);
    const double warm_s =
        std::chrono::duration<double>(Clock::now() - warm_start).count();

    // Four legs per request, on both passes.
    constexpr core::Priority kLegs = core::Priority::kNormal;
    core::service::ServiceLedger ledger;
    ledger.complete_unchecked(kLegs, 2 * 4 * book.size());
    for (std::size_t i = 0; i < book.size(); ++i) {
      ledger.expect_parity(kLegs, cold[i].greeks, reference[i]);
      ledger.expect_parity(kLegs, warm[i].greeks, reference[i]);
      if (target == core::Target::kCpuReference) {
        // The literal direct-function gate: on the reference target the
        // whole composition collapses back to binomial_greeks, bit for bit.
        ledger.expect_parity(kLegs, cold[i].greeks,
                             finance::binomial_greeks(book[i], steps));
      }
    }
    const auto stats = service.stats();
    const bool target_ok = ledger.passes(stats, "greeks-bench");
    ok = ok && target_ok;
    std::printf("  %-22s: %8.1f greeks/s cold, %8.1f warm, "
                "%llu cache hits%s\n",
                core::to_string(target).c_str(),
                static_cast<double>(book.size()) / cold_s,
                static_cast<double>(book.size()) / warm_s,
                static_cast<unsigned long long>(stats.cache_hits),
                target_ok ? "" : "  MISMATCH");
  }
  if (!ok) return 1;
  std::printf("greeks-bench passed: %zu requests bit-identical to the "
              "direct reference on %zu target(s), cold and cached\n",
              book.size(), targets.size());
  return 0;
}

/// Symmetric shock axis: {0, +step, -step, +2*step, ...}, identity first
/// so scenario 0 of the sweep grid is the unshocked book (its P&L must be
/// exactly zero — a free parity check).
std::vector<double> centered_axis(std::size_t points, double step) {
  std::vector<double> axis{0.0};
  for (std::size_t i = 1; axis.size() < points; ++i) {
    axis.push_back(step * static_cast<double>(i));
    if (axis.size() < points) axis.push_back(-step * static_cast<double>(i));
  }
  return axis;
}

/// The sweep mode: one scenario sweep run cold, replayed on the same
/// epoch, and re-run on a bumped epoch, with the epoch-cache contract and
/// the ledger enforced as exit-status gates.
int run_sweep(std::size_t book_size, std::size_t spots, std::size_t vols,
              std::size_t rates, std::size_t steps, core::Target target,
              std::size_t cache_capacity) {
  using Clock = std::chrono::steady_clock;

  core::SweepRequest request;
  request.book = finance::make_curve_batch(book_size);
  request.grid.spot_factors.clear();
  for (const double shock : centered_axis(spots, 0.05)) {
    request.grid.spot_factors.push_back(1.0 + shock);
  }
  request.grid.vol_shifts = centered_axis(vols, 0.02);
  request.grid.rate_shifts = centered_axis(rates, 2.5e-4);
  request.epoch = 1;

  const std::size_t scenarios = request.grid.scenario_count();
  const std::size_t total_legs = scenarios * book_size + book_size;

  core::ServiceConfig config;
  config.targets = {target};
  config.steps = steps;
  config.cache_capacity = cache_capacity;
  core::PricingService service(config);
  core::GreeksService greeks(service);

  std::printf("sweep: book %zu x %zu scenarios (%zu x %zu x %zu grid) = "
              "%zu legs, %zu steps, target %s\n",
              book_size, scenarios, spots, vols, rates, total_legs, steps,
              core::to_string(target).c_str());

  const auto before = service.stats();
  const auto cold_start = Clock::now();
  const core::SweepReport cold = greeks.sweep_blocking(request);
  const double cold_s =
      std::chrono::duration<double>(Clock::now() - cold_start).count();

  const auto warm_start = Clock::now();
  const core::SweepReport warm = greeks.sweep_blocking(request);
  const double warm_s =
      std::chrono::duration<double>(Clock::now() - warm_start).count();

  request.epoch += 1;  // the surface moved: every leg must re-price
  const core::SweepReport moved = greeks.sweep_blocking(request);
  const auto delta = service.stats().minus(before);

  std::printf("  cold      : %10.1f legs/s (%.3f s), %llu priced, "
              "%llu cache hits\n",
              static_cast<double>(total_legs) / cold_s, cold_s,
              static_cast<unsigned long long>(cold.options_priced),
              static_cast<unsigned long long>(cold.cache_hits));
  std::printf("  same epoch: %10.1f legs/s (%.3f s), %llu priced, "
              "%llu cache hits\n",
              static_cast<double>(total_legs) / warm_s, warm_s,
              static_cast<unsigned long long>(warm.options_priced),
              static_cast<unsigned long long>(warm.cache_hits));
  std::printf("  book value: %.4f\n", cold.book_value);
  std::printf("  pnl       : mean %.4f, stddev %.4f, min %.4f, max %.4f\n",
              cold.pnl.mean(), cold.pnl.stddev(), cold.pnl.min(),
              cold.pnl.max());
  std::printf("  tail      : VaR95 %.4f, VaR99 %.4f, ES95 %.4f "
              "(%llu loss scenarios)\n",
              cold.var95, cold.var99, cold.expected_shortfall95,
              static_cast<unsigned long long>(cold.loss_ticks.count()));

  bool ok = true;
  if (cold.scenario_pnl.empty() || cold.scenario_pnl[0] != 0.0) {
    std::fprintf(stderr, "sweep FAILED: identity scenario P&L is not "
                         "exactly zero\n");
    ok = false;
  }
  if (warm.options_priced != 0) {
    std::fprintf(stderr,
                 "sweep FAILED: unchanged epoch re-priced %llu legs "
                 "(cache keyed on the epoch should have answered all)\n",
                 static_cast<unsigned long long>(warm.options_priced));
    ok = false;
  }
  if (warm.cache_hits != total_legs) {
    std::fprintf(stderr,
                 "sweep FAILED: unchanged epoch hit the cache %llu times, "
                 "expected %zu\n",
                 static_cast<unsigned long long>(warm.cache_hits),
                 total_legs);
    ok = false;
  }
  if (warm.book_value != cold.book_value ||
      warm.scenario_pnl != cold.scenario_pnl) {
    std::fprintf(stderr, "sweep FAILED: cache replay changed the sweep "
                         "result\n");
    ok = false;
  }
  if (moved.options_priced == 0) {
    std::fprintf(stderr, "sweep FAILED: bumping the epoch re-priced "
                         "nothing — stale surface served from cache\n");
    ok = false;
  }
  // Every leg of the three passes was issued and came back priced.
  core::service::ServiceLedger ledger;
  ledger.complete_unchecked(core::Priority::kNormal, 3 * total_legs);
  ok = ledger.passes(delta, "sweep") && ok;
  if (!ok) return 1;
  std::printf("sweep passed: %zu legs/sweep, unchanged epoch re-priced "
              "nothing, bumped epoch re-priced, every request conserved\n",
              total_legs);
  return 0;
}

/// The trace mode: run both paper kernels and a short service session with
/// a tracer attached, then serialize everything to Chrome trace JSON.
int run_trace(const std::string& out_path, std::size_t num_options,
              std::size_t steps) {
  ocl::trace::Tracer tracer;
  const std::vector<finance::OptionSpec> options =
      finance::make_random_batch(num_options, /*seed=*/42);

  // Kernel section: both paper kernels on one 4-compute-unit device, so
  // the trace shows the command-queue lane plus four work-group lanes.
  constexpr std::size_t kMiB = 1024 * 1024;
  const std::size_t group = std::max<std::size_t>(steps, 256);
  ocl::Device device("trace-demo", ocl::DeviceKind::kFpga,
                     ocl::DeviceLimits{256 * kMiB, 64 * 1024, group,
                                       /*compute_units=*/4});
  device.set_tracer(&tracer);

  std::printf("kernel IV.A (N = %zu, %zu options) ... ", steps, num_options);
  kernels::KernelAHostProgram program_a(device, {.steps = steps});
  (void)program_a.run(options);
  std::printf("done\n");

  std::printf("kernel IV.B (N = %zu, %zu options) ... ", steps, num_options);
  kernels::KernelBHostProgram program_b(device, {.steps = steps});
  (void)program_b.run(options);
  std::printf("done\n");

  // Service section: a two-worker service pricing the same options twice
  // (second pass replays the cache), so the trace shows the batch
  // lifecycle lanes: admit/linger gap, launch, resolve.
  std::printf("service session (2 workers) ... ");
  {
    core::ServiceConfig config;
    config.targets.assign(2, core::Target::kCpuReference);
    config.steps = steps;
    config.max_batch = std::max<std::size_t>(1, num_options / 2);
    config.cache_capacity = 1024;
    config.tracer = &tracer;
    core::PricingService service(config);
    (void)service.submit_batch(options).get();
    (void)service.submit_batch(options).get();
  }
  std::printf("done\n");

  if (!tracer.write_file(out_path)) return 1;
  std::printf("trace: %zu events -> %s (open in chrome://tracing or "
              "ui.perfetto.dev)\n",
              tracer.event_count(), out_path.c_str());
  return 0;
}

void json_escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Accumulates the machine-readable --report-json payload while the check
/// prints its human-readable progress.
struct CheckReportJson {
  std::string variants;       // joined variant objects
  std::string sweeps;         // joined sweep objects
  std::size_t proved_safe = 0;

  void add_variant(const std::string& label,
                   const ocl::analyzer::symbolic::VerificationResult& result,
                   double ii) {
    if (!variants.empty()) variants += ",";
    variants += "\n    {\"label\": \"";
    json_escape_into(variants, label);
    variants += "\", \"kernel\": \"";
    json_escape_into(variants, result.kernel);
    variants += "\", \"steps\": " + std::to_string(result.steps);
    variants += ", \"local_size\": " + std::to_string(result.local_size);
    variants +=
        std::string(", \"certified\": ") + (result.certified ? "true" : "false");
    variants += ", \"initiation_interval\": " + std::to_string(ii);
    variants += ", \"proofs\": [";
    for (std::size_t i = 0; i < result.proofs.size(); ++i) {
      if (i > 0) variants += ", ";
      variants += "{\"property\": \"";
      json_escape_into(variants, result.proofs[i].property);
      variants +=
          "\", \"checks\": " + std::to_string(result.proofs[i].checks) + "}";
    }
    variants += "], \"counterexamples\": [";
    for (std::size_t i = 0; i < result.counterexamples.size(); ++i) {
      if (i > 0) variants += ", ";
      variants += "{\"detail\": \"";
      json_escape_into(variants, result.counterexamples[i].to_string());
      variants += "\"}";
    }
    variants += "], \"unprovable\": [";
    for (std::size_t i = 0; i < result.unprovable.size(); ++i) {
      if (i > 0) variants += ", ";
      variants += "\"";
      json_escape_into(variants, result.unprovable[i]);
      variants += "\"";
    }
    variants += "]}";
    if (result.certified) ++proved_safe;
  }

  void add_sweep(const std::string& kernel, std::size_t min_steps,
                 std::size_t max_steps,
                 const ocl::analyzer::symbolic::ParametricSweep& sweep) {
    if (!sweeps.empty()) sweeps += ",";
    sweeps += "\n    {\"kernel\": \"";
    json_escape_into(sweeps, kernel);
    sweeps += "\", \"min_steps\": " + std::to_string(min_steps);
    sweeps += ", \"max_steps\": " + std::to_string(max_steps);
    sweeps += ", \"points\": " + std::to_string(sweep.points);
    sweeps += ", \"certified\": " + std::to_string(sweep.certified) + "}";
  }

  [[nodiscard]] std::string render(std::size_t steps, bool static_only,
                                   bool dynamic_ran,
                                   std::size_t dynamic_hazards,
                                   std::size_t errors) const {
    std::string out = "{\n";
    out += "  \"steps\": " + std::to_string(steps) + ",\n";
    out +=
        std::string("  \"static_only\": ") + (static_only ? "true" : "false") +
        ",\n";
    out += "  \"proved_safe\": " + std::to_string(proved_safe) + ",\n";
    out += "  \"variants\": [" + variants + "\n  ],\n";
    out += "  \"sweeps\": [" + sweeps + "\n  ],\n";
    out += std::string("  \"dynamic\": {\"ran\": ") +
           (dynamic_ran ? "true" : "false") +
           ", \"hazards\": " + std::to_string(dynamic_hazards) + "},\n";
    out += "  \"errors\": " + std::to_string(errors) + "\n";
    out += "}\n";
    return out;
  }
};

/// The symbolic-verification section of --check: prove every registered
/// kernel variant safe at the selected depth, then sweep `steps` across
/// every device-admissible launch shape. Pure static analysis.
void run_static_verification(std::size_t steps, std::size_t max_group,
                             ocl::analyzer::HazardReport& report,
                             CheckReportJson& json) {
  namespace sym = ocl::analyzer::symbolic;
  sym::VerifyOptions options;
  options.max_workgroup_size = max_group;

  std::printf("symbolic verifier (N = %zu, work-group ceiling %zu):\n", steps,
              max_group);
  for (const kernels::KernelVariant& variant :
       kernels::all_kernel_variants(steps)) {
    const sym::VerificationResult result =
        sym::verify_kernel_ir(variant.ir, options);
    const fpga::IIAnalysis ii =
        fpga::analyze_initiation_interval(variant.ir);
    std::printf("  %-12s %s  (II >= %.0f)\n", variant.label.c_str(),
                result.certified ? "CERTIFIED" : "REFUTED", ii.ii);
    if (!result.certified) {
      std::printf("%s", result.to_string().c_str());
    }
    sym::report_findings(result, report, options);
    json.add_variant(variant.label, result, ii.ii);
  }

  // Parametric sweeps: kernel IV.A admits any steps >= 1; kernel IV.B
  // requires work-group size == steps, so the device ceiling bounds it.
  const std::size_t sweep_hi = max_group;
  const auto sweep = [&](const char* name, std::size_t lo,
                         auto&& builder) {
    const sym::ParametricSweep result =
        sym::verify_parametric(builder, lo, sweep_hi, options);
    std::printf("  %s parametric steps in [%zu, %zu]: %zu/%zu certified\n",
                name, lo, sweep_hi, result.certified, result.points);
    for (const sym::VerificationResult& failure : result.failures) {
      std::printf("%s", failure.to_string().c_str());
      sym::report_findings(failure, report, options);
    }
    json.add_sweep(name, lo, sweep_hi, result);
  };
  sweep("IV.A", 1,
        [](std::size_t n) { return kernels::kernel_a_ir(n); });
  sweep("IV.B", 2,
        [](std::size_t n) { return kernels::kernel_b_ir(n); });
}

/// The --check mode. Always: symbolic verification (parametric proofs) and
/// the static IR lint. Unless --static-only: additionally execute kernels
/// IV.A and IV.B under the shadow-memory analyzer on a multi-compute-unit
/// device. One combined report; the exit status gates on error-severity
/// findings.
int run_check(std::size_t steps, bool static_only,
              const std::string& report_json_path) {
  namespace an = ocl::analyzer;
  constexpr std::size_t kMiB = 1024 * 1024;
  const std::size_t group = std::max<std::size_t>(steps, 256);

  an::HazardReport static_report;
  CheckReportJson json;
  run_static_verification(steps, group, static_report, json);

  std::printf("static IR lint ... ");
  std::size_t lint = 0;
  lint += an::lint_kernel_ir(kernels::kernel_a_ir(steps), static_report);
  lint += an::lint_kernel_ir(kernels::kernel_b_ir(steps), static_report);
  std::printf("%zu finding(s)\n", lint);

  std::size_t dynamic_hazards = 0;
  std::size_t errors = static_report.error_count();
  std::string combined;
  if (!static_report.empty()) combined += static_report.to_string();

  if (!static_only) {
    ocl::Device device("hazard-check", ocl::DeviceKind::kFpga,
                       ocl::DeviceLimits{256 * kMiB, 64 * 1024, group,
                                         /*compute_units=*/4});
    an::AnalyzerConfig config;
    config.enabled = true;
    device.set_analyzer(config);

    const std::vector<finance::OptionSpec> options =
        finance::make_random_batch(8, /*seed=*/42);

    std::printf("kernel IV.A (dataflow, N = %zu) ... ", steps);
    kernels::KernelAHostProgram program_a(device, {.steps = steps});
    (void)program_a.run(options);
    std::printf("%zu hazard(s)\n", device.hazard_report().size());

    std::printf("kernel IV.B (work-group/option, N = %zu) ... ", steps);
    const std::size_t before = device.hazard_report().size();
    kernels::KernelBHostProgram program_b(device, {.steps = steps});
    (void)program_b.run(options);
    std::printf("%zu hazard(s)\n", device.hazard_report().size() - before);

    dynamic_hazards = device.hazard_report().size();
    errors += device.hazard_report().error_count();
    if (!device.hazard_report().empty()) {
      combined += device.hazard_report().to_string();
    }
  }

  if (!report_json_path.empty()) {
    std::ofstream out(report_json_path);
    if (!out) fail("cannot write --report-json file: " + report_json_path);
    out << json.render(steps, static_only, !static_only, dynamic_hazards,
                       errors);
    std::printf("report written to %s\n", report_json_path.c_str());
  }

  if (errors == 0) {
    std::printf("check passed: %zu kernel variant(s) proved safe%s\n",
                json.proved_safe,
                static_only ? " (nothing executed)" : ", no runtime hazards");
    return 0;
  }
  std::printf("\n%s", combined.c_str());
  std::printf("check FAILED: %zu error-severity finding(s)\n", errors);
  return 1;
}

bool parse_target(const std::string& name, core::Target& out) {
  for (core::Target t : core::all_targets()) {
    if (core::to_string(t) == name) {
      out = t;
      return true;
    }
  }
  return false;
}

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "binopt_cli: %s\n", message.c_str());
  std::exit(2);
}

double parse_double(const char* flag, const char* value) {
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0') {
    fail(std::string("malformed value for ") + flag + ": " + value);
  }
  return parsed;
}

std::size_t parse_size(const char* flag, const char* value) {
  if (const auto parsed =
          parse_unsigned(value, 0, std::numeric_limits<std::size_t>::max())) {
    return static_cast<std::size_t>(*parsed);
  }
  (void)parse_double(flag, value);  // not a number at all: "malformed value"
  fail(std::string("expected a non-negative integer for ") + flag + ": " +
       value);
}

int main_serve_bench(int argc, char** argv) {
  std::size_t num_options = 2000;
  std::size_t steps = 256;
  std::size_t workers = std::max<std::size_t>(
      1, std::min<std::size_t>(2, std::thread::hardware_concurrency()));
  std::size_t submitters = 4;
  std::size_t max_batch = 256;
  std::size_t linger_us = 200;
  std::size_t cache_capacity = 4096;
  core::Target target = core::Target::kCpuReference;
  core::service::RouterConfig router;
  core::service::OverloadConfig overload;
  core::service::PriorityMix mix;

  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help") {
      print_usage();
      return 0;
    }
    if (flag == "--router") {
      router.policy = parse_router_flag(argc, argv, i);
      continue;
    }
    if (i + 1 >= argc) fail("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--options") num_options = parse_size("--options", value);
    else if (flag == "--watts-budget") {
      router.watts_budget = parse_double("--watts-budget", value);
    }
    else if (flag == "--steps") steps = parse_size("--steps", value);
    else if (flag == "--workers") workers = parse_size("--workers", value);
    else if (flag == "--submitters") {
      submitters = parse_size("--submitters", value);
    } else if (flag == "--max-batch") {
      max_batch = parse_size("--max-batch", value);
    } else if (flag == "--linger-us") {
      linger_us = parse_size("--linger-us", value);
    } else if (flag == "--cache") {
      cache_capacity = parse_size("--cache", value);
    } else if (flag == "--shed-watermark") {
      overload.shed_watermark = parse_double("--shed-watermark", value);
    } else if (flag == "--sojourn-target-us") {
      overload.sojourn_target = std::chrono::microseconds{
          static_cast<long>(parse_size("--sojourn-target-us", value))};
    } else if (flag == "--brownout") {
      overload.brownout = parse_size("--brownout", value) != 0;
    } else if (flag == "--priority-mix") {
      try {
        mix = core::service::parse_priority_mix(value);
      } catch (const Error& e) {
        fail(e.what());
      }
    } else if (flag == "--target") {
      if (!parse_target(value, target)) {
        fail(std::string("unknown target '") + value +
             "' (try --list-targets)");
      }
    } else {
      fail("unknown serve-bench flag " + flag + " (try --help)");
    }
  }
  if (num_options == 0) fail("--options must be >= 1");
  if (submitters == 0) fail("--submitters must be >= 1");
  if (workers == 0) fail("--workers must be >= 1");

  try {
    return run_serve_bench(num_options, steps, target, workers, submitters,
                           max_batch, linger_us, cache_capacity, router,
                           overload, mix);
  } catch (const Error& e) {
    fail(e.what());
  }
}

int main_chaos(int argc, char** argv) {
  std::size_t num_options = 256;
  std::size_t steps = 128;
  std::size_t workers = 2;
  core::Target target = core::Target::kFpgaKernelB;
  std::string fault_spec = "device-lost@1;transient@3x2;seed=7";
  core::service::RouterConfig router;
  core::service::OverloadConfig overload;
  core::service::PriorityMix mix;
  std::size_t queue_capacity = 0;

  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help") {
      print_usage();
      return 0;
    }
    if (flag == "--router") {
      router.policy = parse_router_flag(argc, argv, i);
      continue;
    }
    if (i + 1 >= argc) fail("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--options") num_options = parse_size("--options", value);
    else if (flag == "--steps") steps = parse_size("--steps", value);
    else if (flag == "--workers") workers = parse_size("--workers", value);
    else if (flag == "--faults") fault_spec = value;
    else if (flag == "--watts-budget") {
      router.watts_budget = parse_double("--watts-budget", value);
    }
    else if (flag == "--queue") queue_capacity = parse_size("--queue", value);
    else if (flag == "--shed-watermark") {
      overload.shed_watermark = parse_double("--shed-watermark", value);
    } else if (flag == "--sojourn-target-us") {
      overload.sojourn_target = std::chrono::microseconds{
          static_cast<long>(parse_size("--sojourn-target-us", value))};
    } else if (flag == "--priority-mix") {
      try {
        mix = core::service::parse_priority_mix(value);
      } catch (const Error& e) {
        fail(e.what());
      }
    } else if (flag == "--target") {
      if (!parse_target(value, target)) {
        fail(std::string("unknown target '") + value +
             "' (try --list-targets)");
      }
    } else {
      fail("unknown chaos flag " + flag + " (try --help)");
    }
  }
  if (num_options == 0) fail("--options must be >= 1");
  if (workers == 0) fail("--workers must be >= 1");
  if (steps < 2) fail("--steps must be >= 2");

  try {
    return run_chaos(num_options, steps, target, workers, fault_spec, router,
                     overload, mix, queue_capacity);
  } catch (const Error& e) {
    fail(e.what());
  }
}

int main_greeks_bench(int argc, char** argv) {
  std::size_t num_requests = 32;
  std::size_t steps = 128;
  std::size_t cache_capacity = 4096;
  std::vector<core::Target> targets;

  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help") {
      print_usage();
      return 0;
    }
    if (i + 1 >= argc) fail("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--requests") num_requests = parse_size("--requests", value);
    else if (flag == "--steps") steps = parse_size("--steps", value);
    else if (flag == "--cache") cache_capacity = parse_size("--cache", value);
    else if (flag == "--target") {
      core::Target target = core::Target::kCpuReference;
      if (!parse_target(value, target)) {
        fail(std::string("unknown target '") + value +
             "' (try --list-targets)");
      }
      targets = {target};
    } else {
      fail("unknown greeks-bench flag " + flag + " (try --help)");
    }
  }
  if (num_requests < 2) fail("--requests must be >= 2");
  if (steps < 2) fail("--steps must be >= 2");
  if (targets.empty()) targets = core::all_targets();

  try {
    return run_greeks_bench(num_requests, steps, cache_capacity, targets);
  } catch (const Error& e) {
    fail(e.what());
  }
}

int main_sweep(int argc, char** argv) {
  std::size_t book_size = 64;
  std::size_t spots = 5;
  std::size_t vols = 3;
  std::size_t rates = 3;
  std::size_t steps = 128;
  std::size_t cache_capacity = 16384;
  core::Target target = core::Target::kCpuReference;

  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help") {
      print_usage();
      return 0;
    }
    if (i + 1 >= argc) fail("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--book") book_size = parse_size("--book", value);
    else if (flag == "--spots") spots = parse_size("--spots", value);
    else if (flag == "--vols") vols = parse_size("--vols", value);
    else if (flag == "--rates") rates = parse_size("--rates", value);
    else if (flag == "--steps") steps = parse_size("--steps", value);
    else if (flag == "--cache") cache_capacity = parse_size("--cache", value);
    else if (flag == "--target") {
      if (!parse_target(value, target)) {
        fail(std::string("unknown target '") + value +
             "' (try --list-targets)");
      }
    } else {
      fail("unknown sweep flag " + flag + " (try --help)");
    }
  }
  if (book_size < 2) fail("--book must be >= 2");
  if (spots == 0 || vols == 0 || rates == 0) {
    fail("every shock axis needs at least one grid point");
  }
  if (steps < 2) fail("--steps must be >= 2");
  if (cache_capacity == 0) {
    fail("sweep's epoch-cache gates need --cache > 0");
  }

  try {
    return run_sweep(book_size, spots, vols, rates, steps, target,
                     cache_capacity);
  } catch (const Error& e) {
    fail(e.what());
  }
}

int main_trace(int argc, char** argv) {
  std::string out_path = "trace.json";
  std::size_t num_options = 8;
  std::size_t steps = 64;

  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help") {
      print_usage();
      return 0;
    }
    if (i + 1 >= argc) fail("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--out") out_path = value;
    else if (flag == "--options") num_options = parse_size("--options", value);
    else if (flag == "--steps") steps = parse_size("--steps", value);
    else fail("unknown trace flag " + flag + " (try --help)");
  }
  if (num_options == 0) fail("--options must be >= 1");
  if (steps < 2) fail("--steps must be >= 2");

  try {
    return run_trace(out_path, num_options, steps);
  } catch (const Error& e) {
    fail(e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "serve-bench") == 0) {
    return main_serve_bench(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "chaos") == 0) {
    return main_chaos(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "greeks-bench") == 0) {
    return main_greeks_bench(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "sweep") == 0) {
    return main_sweep(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "trace") == 0) {
    return main_trace(argc, argv);
  }

  finance::OptionSpec spec;
  std::size_t steps = 1024;
  bool steps_given = false;
  bool check = false;
  bool static_only = false;
  std::string report_json;
  core::Target target = core::Target::kCpuReference;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help") {
      print_usage();
      return 0;
    }
    if (flag == "--list-targets") {
      for (core::Target t : core::all_targets()) {
        std::printf("%s\n", core::to_string(t).c_str());
      }
      return 0;
    }
    if (flag == "--check") {
      check = true;
      continue;
    }
    if (flag == "--static-only") {
      static_only = true;
      continue;
    }
    if (i + 1 >= argc) fail("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--report-json") report_json = value;
    else if (flag == "--spot") spec.spot = parse_double("--spot", value);
    else if (flag == "--strike") spec.strike = parse_double("--strike", value);
    else if (flag == "--rate") spec.rate = parse_double("--rate", value);
    else if (flag == "--div") spec.dividend = parse_double("--div", value);
    else if (flag == "--vol") spec.volatility = parse_double("--vol", value);
    else if (flag == "--maturity") spec.maturity = parse_double("--maturity", value);
    else if (flag == "--type") {
      if (std::strcmp(value, "call") == 0) spec.type = finance::OptionType::kCall;
      else if (std::strcmp(value, "put") == 0) spec.type = finance::OptionType::kPut;
      else fail(std::string("unknown option type: ") + value);
    } else if (flag == "--style") {
      if (std::strcmp(value, "american") == 0) {
        spec.style = finance::ExerciseStyle::kAmerican;
      } else if (std::strcmp(value, "european") == 0) {
        spec.style = finance::ExerciseStyle::kEuropean;
      } else {
        fail(std::string("unknown exercise style: ") + value);
      }
    } else if (flag == "--steps") {
      steps = parse_size("--steps", value);
      steps_given = true;
    } else if (flag == "--target") {
      if (!parse_target(value, target)) {
        fail(std::string("unknown target '") + value +
             "' (try --list-targets)");
      }
    } else {
      fail("unknown flag " + flag + " (try --help)");
    }
  }

  try {
    if (check) {
      // Shadow-memory analysis visits every byte of every access; a
      // modest default depth keeps the check fast while exercising both
      // kernels' full structure. (The symbolic section is closed-form and
      // depth-insensitive either way.)
      return run_check(steps_given ? steps : 64, static_only, report_json);
    }
    if (static_only) fail("--static-only requires --check");
    if (!report_json.empty()) fail("--report-json requires --check");
    spec.validate();
    core::PricingAccelerator accelerator({target, steps, true});
    const core::RunReport report = accelerator.run({spec});
    std::printf("price              : %.6f\n", report.prices[0]);
    std::printf("target             : %s (N = %zu)\n",
                core::to_string(target).c_str(), steps);
    std::printf("rmse vs reference  : %.2e\n", report.rmse_vs_reference);
    std::printf("modelled rate      : %.1f options/s\n",
                report.options_per_second);
    std::printf("modelled power     : %.1f W (%.1f options/J)\n",
                report.power_watts, report.options_per_joule);
  } catch (const Error& e) {
    fail(e.what());
  }
  return 0;
}
