// The repository benchmark. One seeded workload per invocation:
//
//   curve_tick    closed loop: the paper's 2000-option curve at 1024 steps,
//                 re-priced in chunks after each smile move, plus Greeks on
//                 a book slice (finance-bound; cache read-heavy)
//   quote_stream  open loop: single quotes at 64 steps on a ladder of fixed
//                 rates, overload layer armed (spine-bound; cache
//                 write-only)
//   kernel_fleet  closed loop: a 256-option book at 128 steps through the
//                 simulated kernel-b-fpga + kernel-a-gpu fleet
//                 (OpenCL-executor-bound)
//
// Every price is checked bitwise against a direct reference on the target
// that served it; quote_stream also checks exact per-class conservation
// against ServiceStats. With --trace 1 the workload runs twice (untraced
// and traced, giving the tracing overhead) and a per-layer ladder times
// each layer's public calls on the workload's own inputs, recording spans
// in memory; every per-layer metric is derived from those spans.
//
// Output: one JSON row per measurement (each with the host fingerprint),
// then a last line {"correct", "attempted", "failed", "metrics"}. Exit 1
// on any parity or conservation violation, 2 on bad usage.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/accelerator.h"
#include "core/service/greeks_service.h"
#include "core/service/pricing_service.h"
#include "energy/energy_model.h"
#include "finance/binomial_batch.h"
#include "finance/greeks.h"
#include "finance/workload.h"
#include "kernels/kernel_a.h"
#include "kernels/kernel_b.h"
#include "measure.h"
#include "ocl/platform.h"
#include "ocl/trace/tracer.h"
#include "perf/tree_shape.h"

extern char** environ;

namespace {

using namespace binopt;
using core::Priority;
using core::Target;
using finance::OptionSpec;
using ocl::trace::monotonic_ns;
using ocl::trace::Tracer;

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Context {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

const Context* g_ctx = nullptr;

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Prints one measurement row carrying the host fingerprint.
void row(const std::string& name, double value, const std::string& unit,
         const std::string& detail = "") {
  std::printf(
      "{\"row\":%s,\"value\":%s,\"unit\":%s,\"detail\":%s,\"workload\":%s,"
      "\"seed\":%llu,\"nproc\":%ld,\"simd\":%s,\"build\":%s}\n",
      json_string(name).c_str(), json_number(value).c_str(),
      json_string(unit).c_str(), json_string(detail).c_str(),
      json_string(g_ctx->workload).c_str(),
      static_cast<unsigned long long>(g_ctx->seed),
      sysconf(_SC_NPROCESSORS_ONLN),
      finance::BatchPricer::simd_enabled() ? "true" : "false",
      json_string(PERFBENCH_BUILD_TYPE).c_str());
}

std::string fmt(const char* f, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

/// A timing row: median, the rule's tail percentile, and the sample count.
void timing_row(const std::string& name, const perfbench::Summary& s,
                const std::string& unit) {
  row(name + "_p50", s.p50, unit, fmt("n=%.0f", static_cast<double>(s.n)));
  row(name + "_p" + fmt("%g", s.tail_pct), s.tail, unit,
      fmt("n=%.0f; highest percentile with >=10 samples beyond it",
          static_cast<double>(s.n)));
}

/// User + system CPU seconds of the whole process so far.
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// a / b as a double; 0 when nothing was counted in b.
double ratio(std::uint64_t a, std::uint64_t b) {
  return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

double seconds_between(std::uint64_t a_ns, std::uint64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

/// Outcome bookkeeping shared by every workload.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;       ///< unexpected exceptions
  std::uint64_t mismatches = 0;   ///< parity failures
  std::uint64_t misses = 0;       ///< shed + timed out (failed_ratio only)
  bool conserved = true;

  [[nodiscard]] std::uint64_t failed() const {
    return errors + mismatches + (conserved ? 0 : 1);
  }
  [[nodiscard]] bool correct() const {
    return errors == 0 && mismatches == 0 && conserved;
  }
};

// ---------------------------------------------------------------------------
// Spans

/// Records one complete span into the tracer (no-op when untraced).
class Span {
public:
  Span(Tracer* tracer, const char* name, const char* layer,
       std::uint64_t tid = 0)
      : tracer_(tracer), name_(name), layer_(layer), tid_(tid),
        start_ns_(tracer ? monotonic_ns() : 0) {}
  ~Span() {
    if (tracer_ == nullptr) return;
    ocl::trace::TraceEvent event;
    event.name = name_;
    event.category = layer_;
    event.start_ns = start_ns_;
    event.dur_ns = monotonic_ns() - start_ns_;
    event.tid = tid_;
    tracer_->record(std::move(event));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  Tracer* tracer_;
  const char* name_;
  const char* layer_;
  std::uint64_t tid_;
  std::uint64_t start_ns_;
};

std::vector<double> span_ns(const std::vector<ocl::trace::TraceEvent>& events,
                            const std::string& name) {
  std::vector<double> out;
  for (const auto& e : events) {
    if (e.name == name) out.push_back(static_cast<double>(e.dur_ns));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parity references

using SpecKey = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                           std::uint64_t, std::uint64_t, std::uint64_t, int,
                           int>;

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

SpecKey key_of(const OptionSpec& s) {
  return {bits(s.spot),     bits(s.strike),   bits(s.rate),
          bits(s.dividend), bits(s.volatility), bits(s.maturity),
          static_cast<int>(s.type), static_cast<int>(s.style)};
}

std::vector<OptionSpec> take(const std::vector<OptionSpec>& v, std::size_t n) {
  return {v.begin(), v.begin() + std::min(n, v.size())};
}

core::PricingAccelerator::Config direct_config(Target target,
                                               std::size_t steps) {
  core::PricingAccelerator::Config cfg;
  cfg.target = target;
  cfg.steps = steps;
  cfg.compute_rmse = false;
  cfg.compute_units = 1;
  return cfg;
}

/// Prices specs on `target` with private direct accelerators, split over
/// `threads` host threads (only used outside timed regions).
std::vector<double> direct_prices(Target target, std::size_t steps,
                                  const std::vector<OptionSpec>& specs,
                                  std::size_t threads) {
  std::vector<double> out(specs.size(), 0.0);
  if (specs.empty()) return out;
  threads = std::max<std::size_t>(1, std::min(threads, specs.size()));
  const std::size_t per = (specs.size() + threads - 1) / threads;
  std::vector<std::thread> pool;
  std::vector<std::exception_ptr> errors(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        const std::size_t lo = t * per;
        const std::size_t hi = std::min(specs.size(), lo + per);
        if (lo >= hi) return;
        core::PricingAccelerator direct(direct_config(target, steps));
        direct.run_prices(specs.data() + lo, hi - lo, out.data() + lo);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (auto& th : pool) th.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return out;
}

bool greeks_equal(const finance::Greeks& a, const finance::Greeks& b) {
  return bits(a.price) == bits(b.price) && bits(a.delta) == bits(b.delta) &&
         bits(a.gamma) == bits(b.gamma) && bits(a.theta) == bits(b.theta) &&
         bits(a.vega) == bits(b.vega) && bits(a.rho) == bits(b.rho);
}

/// The direct Greeks reference on one target: the same lattice front and
/// bump set the service uses, legs priced by a private accelerator.
std::vector<finance::Greeks> direct_greeks(Target target, std::size_t steps,
                                           const std::vector<OptionSpec>& specs,
                                           std::size_t threads) {
  std::vector<finance::GreeksBumpSet> sets;
  std::vector<OptionSpec> legs;
  sets.reserve(specs.size());
  legs.reserve(4 * specs.size());
  const core::GreeksConfig bumps;
  for (const OptionSpec& spec : specs) {
    sets.push_back(finance::GreeksBumpSet::from(spec, steps, bumps.vol_bump,
                                                bumps.rate_bump));
    legs.push_back(sets.back().vega_up);
    legs.push_back(sets.back().vega_down);
    legs.push_back(sets.back().rho_up);
    legs.push_back(sets.back().rho_down);
  }
  const std::vector<double> leg = direct_prices(target, steps, legs, threads);
  std::vector<finance::Greeks> out(specs.size());
  std::vector<std::thread> pool;
  threads = std::max<std::size_t>(1, threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < specs.size(); i += threads) {
        out[i] = finance::assemble_greeks(
            finance::lattice_front_greeks(specs[i], steps), sets[i],
            leg[4 * i], leg[4 * i + 1], leg[4 * i + 2], leg[4 * i + 3]);
      }
    });
  }
  for (auto& th : pool) th.join();
  return out;
}

/// Served-weighted model figures of one fleet placement (paper's models).
struct Modelled {
  double j_per_option = 0.0;
  double device_s_per_option = 0.0;
};

Modelled modelled(const std::vector<Target>& targets,
                  const std::vector<std::uint64_t>& served,
                  std::size_t steps) {
  Modelled m;
  double total = 0.0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const double n = i < served.size() ? static_cast<double>(served[i]) : 0.0;
    using Acc = core::PricingAccelerator;
    const double ops = Acc::modelled_options_per_second(targets[i], steps);
    m.j_per_option += n * energy::safe_joules_per_option(
                              ops, Acc::modelled_power_watts(targets[i]));
    m.device_s_per_option += n / ops;
    total += n;
  }
  if (total > 0.0) {
    m.j_per_option /= total;
    m.device_s_per_option /= total;
  }
  return m;
}

core::service::ServiceStats stats_delta(
    const core::PricingService& service,
    const core::service::ServiceStats& before) {
  return service.stats().minus(before);
}

// ---------------------------------------------------------------------------
// Workload results

/// What one timed segment of a workload measured.
struct Segment {
  double options_per_s = 0.0;  ///< the workload's headline throughput
  /// Options served per CPU-second of the whole process (service and
  /// client threads) — the host cost of the work.
  double options_per_cpu_s = 0.0;
  perfbench::Summary latency;  ///< the workload's user-visible unit of work
  Modelled model;
  core::service::ServiceStats stats;  ///< delta over the segment
  double seconds = 0.0;
  double lag_p99_ms = 0.0;            ///< generator lag, nearest-rank p99
  std::uint64_t shed_normal_issued = 0;
  std::uint64_t shed_batch_issued = 0;
};

double tail_at(const std::vector<double>& samples, double pct) {
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  return perfbench::nearest_rank(sorted, pct);
}

// ---------------------------------------------------------------------------
// curve_tick

constexpr std::size_t kCurveSize = 2000;
constexpr std::size_t kCurveSteps = 1024;
constexpr std::size_t kCurveChunk = 250;
constexpr std::size_t kCurveMoved = 64;     ///< strikes moved per tick
constexpr std::size_t kGreeksSlice = 16;    ///< Greeks requests per tick
constexpr double kVolStep = 5e-4;           ///< smile move quantum

/// The unmoved curve: make_curve_batch with a seeded rate and maturity.
std::vector<OptionSpec> curve_inputs(std::uint64_t seed) {
  SplitMix64 rng(seed ^ 0xC0FFEEull);
  const double rate = rng.uniform(0.01, 0.06);
  const double maturity = rng.uniform(0.5, 1.5);
  return finance::make_curve_batch(kCurveSize, 100.0, rate, maturity);
}

core::ServiceConfig curve_config() {
  core::ServiceConfig cfg;
  cfg.targets = {Target::kCpuReference, Target::kCpuReference};
  cfg.steps = kCurveSteps;
  cfg.max_batch = 64;  // a 250-option chunk spreads over both workers
  cfg.cache_capacity = 8192;
  return cfg;
}

/// The smile state: per strike, an integer number of kVolStep moves.
/// Specs are rebuilt from (base, offset) so equal states are bit-equal.
OptionSpec curve_spec(const std::vector<OptionSpec>& base, std::size_t i,
                      int offset) {
  OptionSpec s = base[i];
  s.volatility = base[i].volatility + kVolStep * offset;
  return s;
}

struct CurveTick {
  std::vector<std::pair<std::uint32_t, int>> moves;  ///< (strike, new offset)
  std::uint32_t greeks_at = 0;
};

/// One closed-loop run of curve_tick for `seconds`. Verification keeps
/// memory flat in the run length: a strike that did not move must price
/// bit-identically to the previous tick (checked as it happens); the base
/// curve and every moved strike's price are kept and checked against a
/// direct reference after the clock stops. By induction every price is
/// checked.
Segment run_curve(const std::vector<OptionSpec>& base, std::uint64_t seed,
                  double seconds, Tracer* tracer, Ledger& ledger,
                  double* setup_s) {
  // Set-up: service + Greeks front-end + one warm curve and Greeks slice
  // (fills the cache and the lazily-built pricers). Repeated three times;
  // set-up time is the median.
  std::vector<double> setups;
  std::unique_ptr<core::PricingService> service;
  std::unique_ptr<core::GreeksService> greeks;
  std::vector<double> out(kCurveSize);
  const std::vector<OptionSpec> warm_slice = take(base, kGreeksSlice);
  for (int rep = 0; rep < (setup_s ? 3 : 1); ++rep) {
    greeks.reset();
    service.reset();
    const std::uint64_t t0 = monotonic_ns();
    service = std::make_unique<core::PricingService>(curve_config());
    greeks = std::make_unique<core::GreeksService>(*service);
    service->price_batch_blocking(base.data(), kCurveSize, out.data());
    (void)greeks->greeks_batch_blocking(warm_slice);
    setups.push_back(seconds_between(t0, monotonic_ns()));
  }
  if (setup_s) *setup_s = perfbench::median(setups);

  SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<int> offset(kCurveSize, 0);
  std::vector<OptionSpec> curve = base;
  std::vector<CurveTick> ticks;
  const std::vector<double> base_out = out;  // the last warm-up curve
  std::vector<double> prev_out = out;
  std::vector<double> moved_out;  // per tick, parallel to CurveTick::moves
  std::vector<std::uint8_t> moved(kCurveSize, 0);
  std::vector<finance::Greeks> greek_out;
  std::vector<double> tick_ms, lag_ms, tick_rate;
  double curve_s = 0.0, greeks_s = 0.0;
  const auto before = service->stats();

  const double cpu0 = process_cpu_s();
  const std::uint64_t start = monotonic_ns();
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t last_done = start;
  while (monotonic_ns() < end) {
    CurveTick tick;
    std::fill(moved.begin(), moved.end(), 0);
    for (std::size_t m = 0; m < kCurveMoved; ++m) {
      const auto i = static_cast<std::uint32_t>(rng.below(kCurveSize));
      const int delta = static_cast<int>(rng.below(41)) - 20;
      offset[i] = std::clamp(offset[i] + (delta == 0 ? 1 : delta), -100, 100);
      curve[i] = curve_spec(base, i, offset[i]);
      tick.moves.emplace_back(i, offset[i]);
      moved[i] = 1;
    }
    tick.greeks_at = static_cast<std::uint32_t>(
        rng.below(kCurveSize - kGreeksSlice + 1));
    const std::vector<OptionSpec> slice(curve.begin() + tick.greeks_at,
                                        curve.begin() + tick.greeks_at +
                                            kGreeksSlice);
    const std::uint64_t t0 = monotonic_ns();
    lag_ms.push_back(perfbench::lag_ms(last_done, t0));
    {
      Span tick_span(tracer, "curve.tick", "client");
      for (std::size_t off = 0; off < kCurveSize; off += kCurveChunk) {
        Span span(tracer, "service.price_batch_blocking", "service");
        ledger.attempted += kCurveChunk;
        try {
          service->price_batch_blocking(curve.data() + off, kCurveChunk,
                                        out.data() + off);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: curve chunk failed: %s\n", e.what());
          ledger.errors += kCurveChunk;
        }
      }
    }
    const std::uint64_t t1 = monotonic_ns();
    ledger.attempted += kGreeksSlice;
    try {
      Span span(tracer, "greeks.greeks_batch_blocking", "greeks");
      for (const core::GreeksQuote& q : greeks->greeks_batch_blocking(slice)) {
        greek_out.push_back(q.greeks);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: Greeks slice failed: %s\n", e.what());
      ledger.errors += kGreeksSlice;
      greek_out.resize(greek_out.size() + kGreeksSlice);
    }
    const std::uint64_t t2 = monotonic_ns();
    last_done = t2;
    curve_s += seconds_between(t0, t1);
    tick_rate.push_back(kCurveSize / seconds_between(t0, t1));
    greeks_s += seconds_between(t1, t2);
    tick_ms.push_back(static_cast<double>(t2 - t0) * 1e-6);
    for (std::size_t i = 0; i < kCurveSize; ++i) {
      if (!moved[i] && bits(out[i]) != bits(prev_out[i])) ++ledger.mismatches;
    }
    for (const auto& mv : tick.moves) moved_out.push_back(out[mv.first]);
    prev_out.swap(out);
    ticks.push_back(std::move(tick));
  }
  const double elapsed = seconds_between(start, monotonic_ns());
  const double cpu_s = process_cpu_s() - cpu0;

  Segment seg;
  seg.stats = stats_delta(*service, before);
  seg.seconds = elapsed;
  seg.options_per_cpu_s =
      static_cast<double>(ticks.size() * kCurveSize) / cpu_s;
  greeks.reset();
  service.reset();

  // Verification (untimed): replay the smile, price every distinct spec
  // once on a direct CPU-reference accelerator, compare bit for bit.
  std::map<SpecKey, std::size_t> index;
  std::vector<OptionSpec> distinct;
  auto intern = [&](const OptionSpec& s) {
    const auto [it, fresh] = index.emplace(key_of(s), distinct.size());
    if (fresh) distinct.push_back(s);
    return it->second;
  };
  std::map<SpecKey, std::size_t> gindex;
  std::vector<OptionSpec> gdistinct;
  std::vector<std::size_t> price_ref;   // base, then moved_out -> distinct
  std::vector<std::size_t> greeks_ref;  // per tick x slice -> gdistinct idx
  for (const OptionSpec& s : base) price_ref.push_back(intern(s));
  curve = base;
  for (const CurveTick& tick : ticks) {
    for (const auto& [i, off] : tick.moves) curve[i] = curve_spec(base, i, off);
    // A strike moved twice in a tick holds its last state for both.
    for (const auto& mv : tick.moves) {
      price_ref.push_back(intern(curve[mv.first]));
    }
    for (std::size_t g = 0; g < kGreeksSlice; ++g) {
      const OptionSpec& s = curve[tick.greeks_at + g];
      const auto [it, fresh] = gindex.emplace(key_of(s), gdistinct.size());
      if (fresh) gdistinct.push_back(s);
      greeks_ref.push_back(it->second);
    }
  }
  const std::vector<double> ref =
      direct_prices(Target::kCpuReference, kCurveSteps, distinct, 3);
  std::vector<double> checked = base_out;
  checked.insert(checked.end(), moved_out.begin(), moved_out.end());
  for (std::size_t k = 0; k < checked.size(); ++k) {
    if (bits(checked[k]) != bits(ref[price_ref[k]])) ++ledger.mismatches;
  }
  const std::vector<finance::Greeks> gref =
      direct_greeks(Target::kCpuReference, kCurveSteps, gdistinct, 3);
  for (std::size_t k = 0; k < greek_out.size(); ++k) {
    if (!greeks_equal(greek_out[k], gref[greeks_ref[k]])) ++ledger.mismatches;
  }

  const double n_ticks = static_cast<double>(ticks.size());
  seg.options_per_s = perfbench::median(tick_rate);
  seg.latency = perfbench::summarize(tick_ms);
  seg.lag_p99_ms = tail_at(lag_ms, 99.0);
  seg.model = modelled(curve_config().targets, seg.stats.served_by_backend,
                       kCurveSteps);
  row("curve_options_per_s", seg.options_per_s, "1/s",
      fmt("median over %.0f ticks of %.0f options / curve pricing time; "
          "mean %.1f",
          n_ticks, static_cast<double>(kCurveSize),
          n_ticks * kCurveSize / curve_s));
  row("greeks_per_s", n_ticks * kGreeksSlice / greeks_s, "1/s",
      fmt("%.0f Greeks over %.3f s", n_ticks * kGreeksSlice, greeks_s));
  timing_row("tick_ms", seg.latency, "ms");
  row("parity_checked",
      static_cast<double>(kCurveSize * (ticks.size() + 1) + greek_out.size()),
      "count",
      fmt("prices and Greeks vs direct reference; %.0f distinct specs, %.0f "
          "distinct Greeks",
          static_cast<double>(distinct.size()),
          static_cast<double>(gdistinct.size())));
  return seg;
}

// ---------------------------------------------------------------------------
// quote_stream

constexpr std::size_t kQuoteSteps = 64;
constexpr double kQuoteLimitMs = 5.0;     ///< p99 latency limit per rung
constexpr double kQuoteLagLimitMs = 1.0;  ///< generator lag limit per rung
constexpr std::chrono::milliseconds kQuoteTimeout{250};
/// Fixed absolute offered rates (quotes/s); the nominal rung reports the
/// latency metrics. The overload rung offers about twice what one worker
/// sustains and exercises shedding.
constexpr double kRungs[] = {10000, 25000, 50000, 100000, 200000};
constexpr std::size_t kNominalRung = 1;
constexpr double kOverloadRate = 800000;
/// Saturation rungs: closed loop with at most kSaturationWindow quotes in
/// flight (below every shed threshold), each on a fresh service, giving
/// the spine's single-quote capacity. Where the host places a service's
/// threads moves its capacity by up to a third for the process's life, so
/// capacity is the median over several services, not one long rung.
constexpr std::size_t kSaturationRungs = 21;
constexpr std::size_t kSaturationWindow = 256;
constexpr double kSaturationShare = 0.3;
constexpr double kOverloadShare = 0.05;

core::ServiceConfig quote_config() {
  core::ServiceConfig cfg;
  cfg.targets = {Target::kCpuReference};  // sender + collector + 1 worker
  cfg.steps = kQuoteSteps;
  cfg.max_batch = 64;
  cfg.queue_capacity = 1024;
  cfg.cache_capacity = 4096;
  cfg.overload.shed_watermark = 0.5;
  cfg.overload.sojourn_target = std::chrono::microseconds{2000};
  return cfg;
}

/// 20% realtime, 50% normal, 30% batch, interleaved deterministically.
Priority quote_class(std::uint64_t k) {
  const std::uint64_t slot = k % 10;
  if (slot < 2) return Priority::kRealtime;
  if (slot < 7) return Priority::kNormal;
  return Priority::kBatch;
}

struct RungResult {
  double rate = 0.0;
  std::vector<double> latency_ms;           ///< completed, from due time
  /// Completed realtime quotes, timed from the send instant: on the
  /// overload rung the generator itself runs late, so due-time latency
  /// would only measure how far behind schedule the rung ended.
  std::vector<double> realtime_latency_ms;
  std::vector<double> lag_ms;
  std::vector<perfbench::ClassTally> classes{3};
  std::uint64_t final_outstanding = 0;
  core::service::ServiceStats stats;
  std::uint64_t start_ns = 0;
  std::uint64_t sent_end_ns = 0;
  double seconds = 0.0;
};

/// One rung: a sender thread issues specs on the fixed schedule until the
/// specs run out or `seconds` pass, a collector thread resolves futures in
/// issue order. A non-zero `window` caps the quotes in flight (the sender
/// waits for the collector), which turns the rung into a closed loop.
RungResult run_rung(core::PricingService& service,
                    const std::vector<OptionSpec>& specs, double rate,
                    double seconds, std::size_t window, Tracer* tracer,
                    Ledger& ledger) {
  RungResult r;
  r.rate = rate;
  std::size_t n = specs.size();
  std::vector<std::future<core::Quote>> futures(n);
  /// Requests the sender settled itself (shed, or refused with an error).
  std::vector<std::uint8_t> settled(n, 0);
  std::vector<std::uint64_t> send_failed(r.classes.size(), 0);
  std::vector<std::uint64_t> sent(n, 0);
  std::vector<double> prices(n, 0.0);
  std::vector<std::uint8_t> priced(n, 0);
  std::atomic<std::size_t> published{0};
  std::atomic<std::size_t> collected{0};
  std::atomic<bool> sending{true};
  perfbench::OpenLoopSchedule schedule;
  schedule.rate_per_s = rate;
  schedule.start_ns = monotonic_ns() + 1000000;  // 1 ms head start
  r.start_ns = schedule.start_ns;
  const std::uint64_t stop_ns =
      schedule.start_ns + static_cast<std::uint64_t>(seconds * 1e9);
  const auto before = service.stats();

  std::thread collector([&] {
    for (std::size_t k = 0;; ++k) {
      // Ahead of the sender: poll with short sleeps rather than spinning,
      // so the harness does not take a core from the service. Once it
      // holds a future, the collector blocks in get() and wakes on
      // resolution.
      while (published.load(std::memory_order_acquire) <= k) {
        if (!sending.load(std::memory_order_acquire) &&
            published.load(std::memory_order_acquire) <= k) {
          return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      auto& tally = r.classes[static_cast<std::size_t>(quote_class(k))];
      if (settled[k]) {  // already tallied by the sender
        collected.store(k + 1, std::memory_order_release);
        continue;
      }
      try {
        core::Quote q;
        {
          Span span(tracer, "service.wait", "service", 1);
          q = futures[k].get();
        }
        const std::uint64_t done = monotonic_ns();
        r.latency_ms.push_back(perfbench::lag_ms(schedule.due_ns(k), done));
        if (quote_class(k) == Priority::kRealtime) {
          r.realtime_latency_ms.push_back(perfbench::lag_ms(sent[k], done));
        }
        ++tally.completed;
        if (!q.browned_out) {
          prices[k] = q.price;
          priced[k] = 1;
        }
      } catch (const core::ServiceTimeoutError&) {
        ++tally.timed_out;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: quote failed: %s\n", e.what());
        ++tally.failed;
      }
      collected.store(k + 1, std::memory_order_release);
    }
  });

  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t due = schedule.due_ns(k);
    std::uint64_t now = monotonic_ns();
    if (now >= stop_ns) {
      n = k;  // out of time: the rest are never issued
      break;
    }
    while (window != 0 &&
           k - collected.load(std::memory_order_acquire) >= window) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    if (due > now + 200000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 100000));
    }
    while ((now = monotonic_ns()) < due) {
    }
    r.lag_ms.push_back(perfbench::lag_ms(due, now));
    sent[k] = now;
    const Priority cls = quote_class(k);
    ++r.classes[static_cast<std::size_t>(cls)].issued;
    try {
      Span span(tracer, "service.submit", "service");
      futures[k] = service.submit(specs[k], kQuoteTimeout, 0, cls);
    } catch (const core::ServiceOverloadError&) {
      settled[k] = 1;
      ++r.classes[static_cast<std::size_t>(cls)].shed;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: submit failed: %s\n", e.what());
      settled[k] = 1;
      ++send_failed[static_cast<std::size_t>(cls)];  // merged after join
    }
    published.store(k + 1, std::memory_order_release);
  }
  r.sent_end_ns = monotonic_ns();
  r.final_outstanding = service.queued_requests();
  sending.store(false, std::memory_order_release);
  collector.join();
  for (std::size_t c = 0; c < r.classes.size(); ++c) {
    r.classes[c].failed += send_failed[c];
  }
  r.seconds = seconds_between(schedule.start_ns, monotonic_ns());
  r.stats = stats_delta(service, before);

  // Exact per-class conservation, cross-checked against the service.
  perfbench::ServiceLedger svc;
  svc.submitted = r.stats.requests_submitted;
  svc.completed = r.stats.requests_completed;
  svc.timed_out = r.stats.requests_timed_out;
  svc.failed = r.stats.requests_failed;
  svc.shed = r.stats.requests_shed_normal + r.stats.requests_shed_batch;
  if (!perfbench::conserved(r.classes, svc)) {
    std::fprintf(stderr, "perfbench: conservation violated at %.0f/s\n", rate);
    ledger.conserved = false;
  }

  // Bitwise parity of every un-browned completion vs a direct run.
  const std::vector<double> ref = direct_prices(
      Target::kCpuReference, kQuoteSteps,
      std::vector<OptionSpec>(specs.begin(), specs.begin() + n), 3);
  for (std::size_t k = 0; k < n; ++k) {
    if (priced[k] && bits(prices[k]) != bits(ref[k])) ++ledger.mismatches;
  }
  for (const auto& c : r.classes) {
    ledger.attempted += c.issued;
    ledger.errors += c.failed;
    ledger.misses += c.shed + c.timed_out;
  }
  return r;
}

/// A fresh quote_stream service, warmed with `warm` realtime quotes so its
/// lazily-built pricer exists before anything is timed.
std::unique_ptr<core::PricingService> warm_quote_service(
    const std::vector<OptionSpec>& warm) {
  auto service = std::make_unique<core::PricingService>(quote_config());
  std::vector<std::future<core::Quote>> fs;
  fs.reserve(warm.size());
  for (const OptionSpec& s : warm) {
    fs.push_back(service->submit(s, kQuoteTimeout, 0, Priority::kRealtime));
  }
  for (auto& f : fs) (void)f.get();
  return service;
}

Segment run_quotes(std::uint64_t seed, double seconds, Tracer* tracer,
                   Ledger& ledger, double* setup_s) {
  const std::size_t ladder = std::size(kRungs);
  const double per_rung = seconds * (1.0 - kSaturationShare - kOverloadShare) /
                          static_cast<double>(ladder);
  const std::vector<OptionSpec> warm =
      finance::make_random_batch(20000, seed * 7919 + 1);

  std::vector<double> setups;
  std::unique_ptr<core::PricingService> service;
  for (int rep = 0; rep < (setup_s ? 5 : 1); ++rep) {
    service.reset();
    const std::uint64_t t0 = monotonic_ns();
    service = warm_quote_service(warm);
    setups.push_back(seconds_between(t0, monotonic_ns()));
  }
  if (setup_s) *setup_s = perfbench::median(setups);

  const auto before = service->stats();
  std::vector<RungResult> results;
  std::uint64_t issued_normal = 0, issued_batch = 0;
  for (std::size_t i = 0; i <= ladder; ++i) {
    const double rate = i < ladder ? kRungs[i] : kOverloadRate;
    const double span_s = i < ladder ? per_rung : seconds * kOverloadShare;
    const std::vector<OptionSpec> specs = finance::make_random_batch(
        static_cast<std::size_t>(rate * span_s), seed * 1000003 + i);
    results.push_back(
        run_rung(*service, specs, rate, span_s, 0, tracer, ledger));
    issued_normal += results.back().classes[1].issued;
    issued_batch += results.back().classes[2].issued;
  }
  Segment seg;
  seg.stats = stats_delta(*service, before);
  service.reset();

  // Saturation: each rung on a fresh service; sized for 1M quotes/s, well
  // above what the spine sustains.
  std::vector<double> capacity;
  std::uint64_t sat_completed = 0;
  double sat_cpu_s = 0.0;
  const double sat_s = seconds * kSaturationShare / kSaturationRungs;
  for (std::size_t j = 0; j < kSaturationRungs; ++j) {
    const auto fresh = warm_quote_service(take(warm, 512));
    const std::vector<OptionSpec> specs = finance::make_random_batch(
        static_cast<std::size_t>(1e6 * sat_s), seed * 1000003 + 100 + j);
    const double cpu0 = process_cpu_s();
    const RungResult r = run_rung(*fresh, specs, 1e9, sat_s, kSaturationWindow,
                                  tracer, ledger);
    sat_cpu_s += process_cpu_s() - cpu0;
    sat_completed += r.latency_ms.size();
    capacity.push_back(static_cast<double>(r.latency_ms.size()) /
                       seconds_between(r.start_ns, r.sent_end_ns));
  }

  // Ladder verdicts: the highest rung meeting the p99 limit with no
  // misses, no growing backlog, and a generator that kept to schedule.
  double max_rate = 0.0;
  std::vector<double> all_lag;
  for (std::size_t i = 0; i < ladder; ++i) {
    const RungResult& r = results[i];
    const perfbench::Summary lat = perfbench::summarize(r.latency_ms, 99.0);
    const perfbench::Summary lag = perfbench::summarize(r.lag_ms, 99.0);
    std::uint64_t misses = 0;
    for (const auto& c : r.classes) misses += c.shed + c.timed_out + c.failed;
    // Backlog grows when the queue ends a rung deeper than the rung's own
    // latency limit can drain at the offered rate.
    const bool backlog = static_cast<double>(r.final_outstanding) >
                         r.rate * kQuoteLimitMs * 1e-3;
    const perfbench::RungVerdict v = perfbench::judge_rung(
        lat.tail, kQuoteLimitMs, misses, backlog, lag.tail, kQuoteLagLimitMs);
    if (v.meets) max_rate = std::max(max_rate, r.rate);
    all_lag.insert(all_lag.end(), r.lag_ms.begin(), r.lag_ms.end());
    row("rung@" + fmt("%.0f", r.rate),
        static_cast<double>(r.latency_ms.size()) / r.seconds, "1/s",
        fmt("completed/s; p50 %.4f ms, p99 %.4f ms", lat.p50, lat.tail) +
            fmt("; lag p99 %.4f ms; misses %.0f", lag.tail,
                static_cast<double>(misses)) +
            (v.valid ? (v.meets ? "; meets limit" : "; misses limit")
                     : "; INVALID (generator ran late)"));
  }
  const RungResult& nominal = results[kNominalRung];
  const RungResult& over = results.back();
  seg.latency = perfbench::summarize(nominal.latency_ms);
  seg.lag_p99_ms = tail_at(all_lag, 99.0);
  seg.seconds = seconds;
  // Open loop: throughput is the goodput of the offered ladder (it falls
  // only when rungs miss). The spine's capacity is a row, per wall second
  // and per CPU-second: wall capacity moves by up to a third with where
  // the host places a service's threads.
  std::uint64_t ladder_completed = 0;
  double ladder_s = 0.0;
  for (std::size_t i = 0; i < ladder; ++i) {
    ladder_completed += results[i].latency_ms.size();
    ladder_s += results[i].seconds;
  }
  seg.options_per_s = static_cast<double>(ladder_completed) / ladder_s;
  seg.options_per_cpu_s = static_cast<double>(sat_completed) / sat_cpu_s;
  seg.shed_normal_issued = issued_normal;
  seg.shed_batch_issued = issued_batch;
  seg.model = modelled(quote_config().targets, seg.stats.served_by_backend,
                       kQuoteSteps);
  timing_row("quote_ms", seg.latency, "ms");
  row("quote_max_rate", max_rate, "1/s",
      fmt("highest rung with p99 <= %.1f ms, no misses, no backlog",
          kQuoteLimitMs));
  std::uint64_t over_misses = 0;
  for (const auto& c : over.classes) over_misses += c.shed + c.timed_out;
  row("realtime_ms_p99_overload", tail_at(over.realtime_latency_ms, 99.0),
      "ms",
      fmt("from send; offered %.0f/s; %.0f realtime completions; ", over.rate,
          static_cast<double>(over.realtime_latency_ms.size())) +
          fmt("%.0f shed or timed out", static_cast<double>(over_misses)));
  row("quote_capacity_per_s", perfbench::median(capacity), "1/s",
      fmt("median over %.0f fresh services, closed loop, %.0f in flight "
          "(options_per_cpu_s is measured on the same rungs)",
          static_cast<double>(kSaturationRungs),
          static_cast<double>(kSaturationWindow)));
  return seg;
}

// ---------------------------------------------------------------------------
// kernel_fleet

constexpr std::size_t kFleetBook = 256;
constexpr std::size_t kFleetSteps = 128;
constexpr std::size_t kFleetChunk = 32;
constexpr std::size_t kFleetClients = 2;

core::ServiceConfig fleet_config() {
  core::ServiceConfig cfg;
  cfg.targets = {Target::kFpgaKernelB, Target::kGpuKernelA};
  cfg.steps = kFleetSteps;
  // Each chunk splits into batches for both workers, so the served split
  // follows the backends' speeds instead of which worker won a race.
  cfg.max_batch = 16;
  cfg.compute_units = 1;  // 2 clients + 2 workers stay within 4 cores
  return cfg;
}

Segment run_fleet(std::uint64_t seed, double seconds, Tracer* tracer,
                  Ledger& ledger, double* setup_s) {
  const std::vector<OptionSpec> book =
      finance::make_random_batch(kFleetBook, seed);
  std::vector<double> setups;
  std::unique_ptr<core::PricingService> service;
  std::vector<double> out(kFleetBook);
  for (int rep = 0; rep < (setup_s ? 3 : 1); ++rep) {
    service.reset();
    const std::uint64_t t0 = monotonic_ns();
    service = std::make_unique<core::PricingService>(fleet_config());
    service->price_batch_blocking(book.data(), kFleetBook, out.data());
    setups.push_back(seconds_between(t0, monotonic_ns()));
  }
  if (setup_s) *setup_s = perfbench::median(setups);

  // Parity references: the book on each fleet target, priced directly.
  const std::vector<Target> targets = fleet_config().targets;
  std::vector<std::vector<double>> refs;
  for (const Target t : targets) {
    refs.push_back(direct_prices(t, kFleetSteps, book, 1));
  }

  const auto before = service->stats();
  const double cpu0 = process_cpu_s();
  const std::uint64_t start = monotonic_ns();
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::vector<double>> chunk_ms(kFleetClients);
  std::vector<std::vector<double>> lag(kFleetClients);
  std::vector<std::uint64_t> priced(kFleetClients, 0), errors(kFleetClients, 0),
      mismatches(kFleetClients, 0);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kFleetClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<double> prices(kFleetChunk);
      std::uint64_t last_done = monotonic_ns();
      for (std::size_t chunk = c;; chunk += kFleetClients) {
        const std::uint64_t t0 = monotonic_ns();
        if (t0 >= end) break;
        lag[c].push_back(perfbench::lag_ms(last_done, t0));
        const std::size_t off = (chunk * kFleetChunk) % kFleetBook;
        try {
          Span span(tracer, "service.price_batch_blocking", "service", c);
          service->price_batch_blocking(book.data() + off, kFleetChunk,
                                        prices.data());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: fleet chunk failed: %s\n", e.what());
          errors[c] += kFleetChunk;
        }
        last_done = monotonic_ns();
        chunk_ms[c].push_back(static_cast<double>(last_done - t0) * 1e-6);
        priced[c] += kFleetChunk;
        for (std::size_t i = 0; i < kFleetChunk; ++i) {
          bool ok = false;
          for (const auto& ref : refs) {
            ok = ok || bits(prices[i]) == bits(ref[off + i]);
          }
          if (!ok) ++mismatches[c];
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  const double elapsed = seconds_between(start, monotonic_ns());
  const double cpu_s = process_cpu_s() - cpu0;

  Segment seg;
  seg.stats = stats_delta(*service, before);
  seg.seconds = elapsed;
  seg.options_per_cpu_s =
      static_cast<double>(seg.stats.requests_completed) / cpu_s;
  service.reset();
  std::vector<double> all_chunks, all_lag;
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < kFleetClients; ++c) {
    all_chunks.insert(all_chunks.end(), chunk_ms[c].begin(), chunk_ms[c].end());
    all_lag.insert(all_lag.end(), lag[c].begin(), lag[c].end());
    total += priced[c];
    ledger.errors += errors[c];
    ledger.mismatches += mismatches[c];
  }
  ledger.attempted += total;
  seg.options_per_s = static_cast<double>(total) / elapsed;
  seg.latency = perfbench::summarize(all_chunks);
  seg.lag_p99_ms = tail_at(all_lag, 99.0);
  seg.model = modelled(targets, seg.stats.served_by_backend, kFleetSteps);
  std::string split;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto& served = seg.stats.served_by_backend;
    split += (i ? ", " : "") + core::to_string(targets[i]) + " " +
             std::to_string(i < served.size() ? served[i] : 0);
  }
  row("sim_options_per_s", seg.options_per_s, "1/s",
      "host seconds; served: " + split);
  row("modelled_j_per_option", seg.model.j_per_option, "J/option",
      "served-weighted, paper power model");
  row("modelled_device_s_per_option", seg.model.device_s_per_option,
      "s/option", "served-weighted, modelled device clock (not host time)");
  timing_row("chunk_ms", seg.latency, "ms");
  return seg;
}

// ---------------------------------------------------------------------------
// Dispatch

struct WorkloadSpec {
  std::size_t steps;
  std::vector<Target> targets;
  std::vector<OptionSpec> inputs;  ///< the ladder's book for this workload
};

WorkloadSpec workload_spec(const std::string& name, std::uint64_t seed) {
  if (name == "curve_tick") {
    return {kCurveSteps, curve_config().targets, curve_inputs(seed)};
  }
  if (name == "quote_stream") {
    return {kQuoteSteps, quote_config().targets,
            finance::make_random_batch(512, seed * 1000003 + 99)};
  }
  return {kFleetSteps, fleet_config().targets,
          finance::make_random_batch(kFleetBook, seed)};
}

Segment run_workload(const Context& ctx, double seconds, Tracer* tracer,
                     Ledger& ledger, double* setup_s) {
  if (ctx.workload == "curve_tick") {
    return run_curve(curve_inputs(ctx.seed), ctx.seed, seconds, tracer, ledger,
                     setup_s);
  }
  if (ctx.workload == "quote_stream") {
    return run_quotes(ctx.seed, seconds, tracer, ledger, setup_s);
  }
  return run_fleet(ctx.seed, seconds, tracer, ledger, setup_s);
}

// ---------------------------------------------------------------------------
// Traced per-layer ladder

const Target kLadderTargets[] = {Target::kCpuReference, Target::kGpuKernelA,
                                 Target::kFpgaKernelB};

/// Simulated targets are probed at no more than kernel_fleet's depth:
/// kernel IV.A at 1024 steps costs seconds of host time per option.
std::size_t ocl_probe_steps(std::size_t steps) {
  return std::min(steps, kFleetSteps);
}
constexpr std::size_t kOclProbeOptions = 32;

/// Times `fn` `reps` times under a span named `name`.
void timed(Tracer& tracer, const char* name, const char* layer, int reps,
           const std::function<void()>& fn) {
  for (int i = 0; i < reps; ++i) {
    Span span(&tracer, name, layer);
    fn();
  }
}

double median_span_ns(const std::vector<ocl::trace::TraceEvent>& events,
                      const std::string& name) {
  return perfbench::median(span_ns(events, name));
}

void ladder(const WorkloadSpec& w, Tracer& tracer, Ledger& ledger,
            std::vector<Metric>& metrics) {
  const std::size_t steps = w.steps;
  const std::size_t ocl_steps = ocl_probe_steps(steps);
  const double nodes = perf::TreeShape{steps}.nodes_per_option();
  // CPU probes sized to ~2e8 lattice nodes.
  const auto cpu_n = std::clamp<std::size_t>(
      static_cast<std::size_t>(2e8 / nodes), 8, w.inputs.size());
  const std::vector<OptionSpec> cpu_book = take(w.inputs, cpu_n);
  const std::vector<OptionSpec> ocl_book = take(w.inputs, kOclProbeOptions);
  const std::vector<OptionSpec> greeks_book = take(w.inputs, kGreeksSlice);
  const int reps = 9;
  auto mismatch = [&](const std::vector<double>& a,
                      const std::vector<double>& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (bits(a[i]) != bits(b[i])) ++ledger.mismatches;
    }
  };

  // finance: scalar vs SIMD BatchPricer on the same inputs.
  finance::BatchPricer pricer(steps);
  std::vector<double> scalar(cpu_book.size()), simd(cpu_book.size());
  finance::BatchPricer::set_simd_override(0);
  timed(tracer, "finance.scalar", "finance", reps, [&] {
    pricer.price_into(cpu_book.data(), cpu_book.size(), scalar.data());
  });
  finance::BatchPricer::set_simd_override(-1);
  timed(tracer, "finance.simd", "finance", reps, [&] {
    pricer.price_into(cpu_book.data(), cpu_book.size(), simd.data());
  });
  mismatch(scalar, simd);
  timed(tracer, "finance.front", "finance", reps, [&] {
    for (const OptionSpec& s : greeks_book) {
      (void)finance::lattice_front_greeks(s, steps);
    }
  });

  // core accelerator on every ladder target; ocl host programs beneath it.
  std::map<Target, std::vector<double>> acc_prices;
  for (const Target t : kLadderTargets) {
    const bool cpu = t == Target::kCpuReference;
    const std::vector<OptionSpec>& book = cpu ? cpu_book : ocl_book;
    core::PricingAccelerator acc(direct_config(t, cpu ? steps : ocl_steps));
    std::vector<double> prices(book.size());
    acc.run_prices(book.data(), 1, prices.data());  // lazy set-up
    const std::string name = "accelerator." + core::to_string(t);
    timed(tracer, name.c_str(), "core", cpu ? reps : 5,
          [&] { acc.run_prices(book.data(), book.size(), prices.data()); });
    acc_prices[t] = prices;
  }
  mismatch(acc_prices[Target::kCpuReference], simd);

  const auto platform = ocl::Platform::make_reference_platform();
  std::map<Target, ocl::RuntimeStats> ocl_stats;
  for (const Target t : {Target::kGpuKernelA, Target::kFpgaKernelB}) {
    const bool a = t == Target::kGpuKernelA;
    ocl::Device& device = platform->device_by_kind(
        a ? ocl::DeviceKind::kGpu : ocl::DeviceKind::kFpga);
    device.set_compute_units(1);
    const std::string name = "ocl." + core::to_string(t);
    std::vector<double> prices;
    timed(tracer, name.c_str(), "ocl", 5, [&] {
      if (a) {
        kernels::KernelAHostProgram::Config cfg;
        cfg.steps = ocl_steps;
        auto res = kernels::KernelAHostProgram(device, cfg).run(ocl_book);
        prices = std::move(res.prices);
        ocl_stats[t] = res.stats;
      } else {
        kernels::KernelBHostProgram::Config cfg;
        cfg.steps = ocl_steps;
        cfg.mode = kernels::MathMode::kFpgaApproxPow;
        auto res = kernels::KernelBHostProgram(device, cfg).run(ocl_book);
        prices = std::move(res.prices);
        ocl_stats[t] = res.stats;
      }
    });
    mismatch(prices, acc_prices[t]);
  }

  // service: single quotes (closed loop, 1 client) for admit/wait; one
  // uncontended batch vs the accelerator for the spine's per-option cost.
  const bool cpu_front = w.targets.front() == Target::kCpuReference;
  core::ServiceConfig probe_cfg;
  probe_cfg.targets = {w.targets.front()};
  probe_cfg.steps = cpu_front ? steps : ocl_steps;
  probe_cfg.compute_units = 1;
  {
    core::PricingService service(probe_cfg);
    const std::vector<OptionSpec>& book = cpu_front ? cpu_book : ocl_book;
    std::vector<double> out(book.size());
    service.price_batch_blocking(book.data(), book.size(), out.data());
    timed(tracer, "service.batch", "service", 5, [&] {
      service.price_batch_blocking(book.data(), book.size(), out.data());
    });
    mismatch(out, acc_prices[w.targets.front()]);
    const std::uint64_t end = monotonic_ns() + 300000000;
    for (std::size_t k = 0; k < 2000 && monotonic_ns() < end; ++k) {
      std::future<core::Quote> f;
      {
        Span span(&tracer, "probe.submit", "service");
        f = service.submit(book[k % book.size()]);
      }
      Span span(&tracer, "probe.wait", "service");
      (void)f.get();
    }
  }

  // GreeksService vs plain legs + direct fronts, same service shape.
  core::ServiceConfig greeks_cfg;
  greeks_cfg.targets = {Target::kCpuReference, Target::kCpuReference};
  greeks_cfg.steps = steps;
  {
    core::PricingService service(greeks_cfg);
    core::GreeksService greeks(service);
    std::vector<OptionSpec> legs;
    for (const OptionSpec& s : greeks_book) {
      const auto set = finance::GreeksBumpSet::from(s, steps);
      legs.insert(legs.end(),
                  {set.vega_up, set.vega_down, set.rho_up, set.rho_down});
    }
    std::vector<double> leg_out(legs.size());
    (void)greeks.greeks_batch_blocking(greeks_book);  // warm
    const auto before = service.stats();
    const auto gbefore = greeks.stats();
    std::vector<core::GreeksQuote> got;
    timed(tracer, "greeks.service", "greeks", reps,
          [&] { got = greeks.greeks_batch_blocking(greeks_book); });
    const auto submitted =
        service.stats().requests_submitted - before.requests_submitted;
    const auto requests =
        greeks.stats().greeks_requests - gbefore.greeks_requests;
    metrics.push_back({"greeks.legs_per_request", ratio(submitted, requests),
                       "count"});
    timed(tracer, "greeks.plain", "greeks", reps, [&] {
      service.price_batch_blocking(legs.data(), legs.size(), leg_out.data());
      for (const OptionSpec& s : greeks_book) {
        (void)finance::lattice_front_greeks(s, steps);
      }
    });
    const auto ref =
        direct_greeks(Target::kCpuReference, steps, greeks_book, 1);
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!greeks_equal(got[i].greeks, ref[i])) ++ledger.mismatches;
    }
  }

  // Derive the per-layer metrics from the recorded spans.
  const auto events = tracer.events();
  const double n_cpu = static_cast<double>(cpu_book.size());
  const double n_ocl = static_cast<double>(ocl_book.size());
  const double simd_ns = median_span_ns(events, "finance.simd");
  const double scalar_ns = median_span_ns(events, "finance.scalar");
  metrics.push_back(
      {"finance.ns_per_node.simd", simd_ns / (n_cpu * nodes), "ns"});
  metrics.push_back(
      {"finance.ns_per_node.scalar", scalar_ns / (n_cpu * nodes), "ns"});
  metrics.push_back({"finance.front_ms_per_greeks",
                     median_span_ns(events, "finance.front") * 1e-6 /
                         static_cast<double>(greeks_book.size()),
                     "ms"});
  row("finance.simd_speedup", scalar_ns / simd_ns, "x",
      "base: finance.ns_per_node.scalar, same inputs");
  auto acc_ns = [&](Target t) {
    return median_span_ns(events, "accelerator." + core::to_string(t));
  };
  for (const Target t : kLadderTargets) {
    const double n = t == Target::kCpuReference ? n_cpu : n_ocl;
    metrics.push_back({"accelerator.ns_per_option." + core::to_string(t),
                       acc_ns(t) / n, "ns"});
  }
  metrics.push_back({"accelerator.overhead_ratio",
                     acc_ns(Target::kCpuReference) / simd_ns, "ratio"});
  for (const Target t : {Target::kGpuKernelA, Target::kFpgaKernelB}) {
    const std::string tn = core::to_string(t);
    const double host_ns = median_span_ns(events, "ocl." + tn);
    const ocl::RuntimeStats& st = ocl_stats[t];
    metrics.push_back(
        {"ocl.host_ms_per_option." + tn, host_ns * 1e-6 / n_ocl, "ms"});
    metrics.push_back({"ocl.work_items_per_option." + tn,
                       static_cast<double>(st.work_items_executed) / n_ocl,
                       "count"});
    metrics.push_back({"ocl.global_bytes_per_option." + tn,
                       static_cast<double>(st.total_global_bytes()) / n_ocl,
                       "B"});
    // Kernel IV.A uses neither barriers nor local memory.
    if (t == Target::kFpgaKernelB) {
      metrics.push_back({"ocl.barriers_per_option." + tn,
                         static_cast<double>(st.barriers_executed) / n_ocl,
                         "count"});
      metrics.push_back({"ocl.local_bytes_per_option." + tn,
                         static_cast<double>(st.total_local_bytes()) / n_ocl,
                         "B"});
      metrics.push_back({"ocl.host_ns_per_barrier." + tn,
                         host_ns / static_cast<double>(st.barriers_executed),
                         "ns"});
    }
    row("accelerator.over_ocl." + tn, acc_ns(t) / host_ns, "ratio",
        "base: ocl.host_ms_per_option." + tn);
  }
  for (const Target t : kLadderTargets) {
    const double ops =
        core::PricingAccelerator::modelled_options_per_second(t, steps);
    metrics.push_back({"model.device_s_per_option." + core::to_string(t),
                       1.0 / ops, "s/option"});
    metrics.push_back(
        {"model.j_per_option." + core::to_string(t),
         energy::safe_joules_per_option(
             ops, core::PricingAccelerator::modelled_power_watts(t)),
         "J/option"});
  }
  const double n_probe = cpu_front ? n_cpu : n_ocl;
  metrics.push_back({"service.overhead_us_per_option",
                     (median_span_ns(events, "service.batch") -
                      acc_ns(w.targets.front())) *
                         1e-3 / n_probe,
                     "us"});
  const perfbench::Summary admit =
      perfbench::summarize(span_ns(events, "probe.submit"), 99.0);
  const perfbench::Summary wait =
      perfbench::summarize(span_ns(events, "probe.wait"), 99.0);
  metrics.push_back({"service.admit_us_p50", admit.p50 * 1e-3, "us"});
  metrics.push_back({"service.admit_us_p99", admit.tail * 1e-3, "us"});
  metrics.push_back({"service.wait_us_p50", wait.p50 * 1e-3, "us"});
  metrics.push_back({"service.wait_us_p99", wait.tail * 1e-3, "us"});
  row("service.probe", static_cast<double>(admit.n), "count",
      fmt("single-quote probe; admit/wait tail is p%g", admit.tail_pct));
  metrics.push_back({"greeks.overhead_ratio",
                     median_span_ns(events, "greeks.service") /
                         median_span_ns(events, "greeks.plain"),
                     "ratio"});
}

// ---------------------------------------------------------------------------

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload curve_tick|quote_stream|kernel_fleet "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               argv0);
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  out = std::strtoull(s.c_str(), nullptr, 10);
  return errno == 0;
}

void print_result(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += ledger.correct() ? "true" : "false";
  out += ", \"attempted\": " +
         std::to_string(std::max<std::uint64_t>(1, ledger.attempted));
  out += ", \"failed\": " + std::to_string(ledger.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  bool have_seed = false, have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    std::uint64_t v = 0;
    if (flag == "--workload") {
      ctx.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, v)) {
      ctx.seed = v;
      have_seed = true;
    } else if (flag == "--seconds" && parse_u64(value, v) && v >= 1 &&
               v <= 600) {
      ctx.seconds = static_cast<double>(v);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      ctx.trace = value == "1";
    } else if (flag == "--trace-out") {
      ctx.trace_out = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_workload ||
      (ctx.workload != "curve_tick" && ctx.workload != "quote_stream" &&
       ctx.workload != "kernel_fleet")) {
    return usage(argv[0]);
  }
  // BINOPT_* variables silently override service/device configuration;
  // a stray one would measure a different program.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "BINOPT_", 7) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *env);
      return 2;
    }
  }
  g_ctx = &ctx;

  Ledger ledger;
  std::vector<Metric> metrics;
  try {
    if (!ctx.trace) {
      double setup_s = 0.0;
      const Segment seg =
          run_workload(ctx, ctx.seconds, nullptr, ledger, &setup_s);
      metrics = {
          {"setup_s", setup_s, "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"},
          {"options_per_s", seg.options_per_s, "1/s"},
          {"latency_ms_p50", seg.latency.p50, "ms"},
          {"modelled_j_per_option", seg.model.j_per_option, "J/option"},
          {"modelled_device_s_per_option", seg.model.device_s_per_option,
           "s/option"},
      };
      row("options_per_cpu_s", seg.options_per_cpu_s, "1/s",
          "options per process CPU-second (not gated: it follows the "
          "host's cache and frequency state)");
    } else {
      // Untraced and traced runs of the same workload: the difference in
      // throughput is the tracing overhead. Layer counters come from the
      // traced run.
      const double part = ctx.seconds * 0.3;
      Tracer tracer;
      const Segment plain = run_workload(ctx, part, nullptr, ledger, nullptr);
      const Segment traced = run_workload(ctx, part, &tracer, ledger, nullptr);
      const auto& st = traced.stats;
      metrics = {
          {"trace.overhead_pct",
           (plain.options_per_s / traced.options_per_s - 1.0) * 100.0, "%"},
          {"service.batch_fill",
           ratio(st.options_priced, st.batches_launched), "options"},
          {"service.shed_ratio.normal",
           ratio(st.requests_shed_normal, traced.shed_normal_issued), "ratio"},
          {"service.shed_ratio.batch",
           ratio(st.requests_shed_batch, traced.shed_batch_issued), "ratio"},
          {"service.retries", static_cast<double>(st.retries), "count"},
          {"cache.hit_ratio", st.cache_hit_rate(), "ratio"},
          {"cache.evictions_per_s",
           static_cast<double>(st.cache_evictions) / traced.seconds, "1/s"},
          {"loadgen.lag_ms_p99", traced.lag_p99_ms, "ms"},
      };
      Tracer ladder_tracer;
      ladder(workload_spec(ctx.workload, ctx.seed), ladder_tracer, ledger,
             metrics);
      if (!ctx.trace_out.empty()) {
        for (const auto& e : ladder_tracer.events()) tracer.record(e);
        tracer.write_file(ctx.trace_out);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    ++ledger.errors;
  }
  for (const Metric& m : metrics) row(m.name, m.value, m.unit);
  row("failed_ratio",
      ratio(ledger.errors + ledger.misses + ledger.mismatches,
            std::max<std::uint64_t>(1, ledger.attempted)),
      "ratio",
      fmt("errors %.0f, shed+timed-out %.0f, parity mismatches %.0f",
          static_cast<double>(ledger.errors),
          static_cast<double>(ledger.misses),
          static_cast<double>(ledger.mismatches)) +
          (ledger.conserved ? "" : "; CONSERVATION VIOLATED"));
  print_result(ledger, metrics);
  std::fflush(stdout);
  return ledger.correct() ? 0 : 1;
}
