// Fault-injection layer (DESIGN.md §2.5): spec parsing and strict
// validation, deterministic firing, typed errors with full attribution,
// the command-queue watchdog, and the disabled-mode bit-identity
// guarantee (a plan that never fires must not change prices, stats, or
// events by a single bit), plus seeded property tests of the spec parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

#include "ocl/context.h"
#include "ocl/device.h"
#include "ocl/faults/fault_plan.h"
#include "ocl/queue.h"
#include "ocl/trace/tracer.h"

namespace binopt::ocl {
namespace {

using faults::FaultKind;
using faults::FaultPlan;
using faults::parse_fault_plan;

Device make_device(std::size_t compute_units = 1) {
  return Device("test-fpga", DeviceKind::kFpga,
                DeviceLimits{1 << 20, 4096, 64, compute_units});
}

Kernel make_scale_kernel(double scale = 3.0) {
  Kernel kernel;
  kernel.name = "scale";
  kernel.body = [scale](WorkItemCtx& ctx, const KernelArgs& args) {
    auto out = ctx.global<double>(args.buffer(0));
    out.set(ctx.global_id(), static_cast<double>(ctx.global_id()) * scale);
  };
  return kernel;
}

/// EXPECT_THROW plus a substring check on the message — the error-message
/// contract is part of the validation API (satellite: config validation).
template <typename Fn>
void expect_rejected(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected PreconditionError containing '" << needle << "'";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << "message was: " << error.what();
  }
}

// ---------------------------------------------------------------------------
// Spec parsing: grammar and strict validation.

TEST(FaultPlanParse, ParsesKindsTriggersAndGlobals) {
  const FaultPlan plan = parse_fault_plan(
      "device-lost@2; transient@4x2; stall@8,ms=40; cu-death@6,cu=1;"
      "read-error@3; corrupt-read@~25; write-error@1;"
      "watchdog-ms=10; seed=42");
  ASSERT_EQ(plan.clauses.size(), 7u);
  EXPECT_EQ(plan.clauses[0].kind, FaultKind::kDeviceLost);
  EXPECT_EQ(plan.clauses[0].ordinal, 2u);
  EXPECT_EQ(plan.clauses[1].kind, FaultKind::kTransient);
  EXPECT_EQ(plan.clauses[1].ordinal, 4u);
  EXPECT_EQ(plan.clauses[1].count, 2u);
  EXPECT_EQ(plan.clauses[2].stall_ms, 40u);
  EXPECT_EQ(plan.clauses[3].cu, 1u);
  EXPECT_EQ(plan.clauses[5].percent, 25u);
  EXPECT_EQ(plan.clauses[5].ordinal, 0u);  // probabilistic trigger
  EXPECT_EQ(plan.watchdog_ns, 10u * 1'000'000u);
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanParse, EmptySpecAndStraySemicolonsAreFine) {
  EXPECT_TRUE(parse_fault_plan("").empty());
  EXPECT_TRUE(parse_fault_plan(" ;; ; ").empty());
}

TEST(FaultPlanParse, RejectsUnknownKindNamingTheKnownOnes) {
  expect_rejected([] { (void)parse_fault_plan("device-gone@1"); },
                  "unknown fault kind 'device-gone'");
  expect_rejected([] { (void)parse_fault_plan("device-gone@1"); },
                  "device-lost, transient, stall");
}

TEST(FaultPlanParse, RejectsMalformedAndNonNumericTriggers) {
  expect_rejected([] { (void)parse_fault_plan("transient"); },
                  "expected <kind>@<trigger>");
  expect_rejected([] { (void)parse_fault_plan("transient@abc"); },
                  "must be an unsigned integer");
  expect_rejected([] { (void)parse_fault_plan("transient@-1"); },
                  "must be an unsigned integer");
  expect_rejected([] { (void)parse_fault_plan("transient@1x-2"); },
                  "must be an unsigned integer");
}

TEST(FaultPlanParse, RejectsZeroAndOverflowingOrdinalsAndCounts) {
  expect_rejected([] { (void)parse_fault_plan("transient@0"); },
                  "ordinals are 1-based");
  expect_rejected([] { (void)parse_fault_plan("transient@1x0"); },
                  "repeat count must be >= 1");
  // strtoull overflow (> 2^64) is rejected, not wrapped.
  expect_rejected(
      [] { (void)parse_fault_plan("transient@99999999999999999999999"); },
      "must be an unsigned integer");
  // ordinal + count wrapping around 2^64 is rejected explicitly.
  expect_rejected(
      [] {
        (void)parse_fault_plan("transient@18446744073709551615x2");
      },
      "overflows");
}

TEST(FaultPlanParse, RejectsOutOfRangePercents) {
  expect_rejected([] { (void)parse_fault_plan("transient@~0"); },
                  "must be in [1, 100]");
  expect_rejected([] { (void)parse_fault_plan("transient@~101"); },
                  "must be in [1, 100]");
}

TEST(FaultPlanParse, RejectsBadParameters) {
  expect_rejected([] { (void)parse_fault_plan("stall@1,ms=0"); },
                  "zero-ms stall");
  expect_rejected([] { (void)parse_fault_plan("stall@1,ms=99999999"); },
                  "capped at 60000");
  expect_rejected([] { (void)parse_fault_plan("transient@1,ms=5"); },
                  "'ms=' only applies to stall");
  expect_rejected([] { (void)parse_fault_plan("transient@1,cu=0"); },
                  "'cu=' only applies to cu-death");
  expect_rejected([] { (void)parse_fault_plan("cu-death@1,cu=4096"); },
                  "cu must be <");
  expect_rejected([] { (void)parse_fault_plan("stall@1,bogus=2"); },
                  "unknown parameter 'bogus'");
  expect_rejected([] { (void)parse_fault_plan("stall@1,ms"); },
                  "not key=value");
}

TEST(FaultPlanParse, RejectsBadGlobals) {
  expect_rejected([] { (void)parse_fault_plan("watchdog-ms=0"); },
                  "zero watchdog");
  expect_rejected([] { (void)parse_fault_plan("watchdog-ms=9999999999"); },
                  "capped at 3600000");
  expect_rejected([] { (void)parse_fault_plan("seed=abc"); },
                  "must be an unsigned integer");
}

// ---------------------------------------------------------------------------
// Parser properties over SplitMix64-generated specs. Case i draws from its
// own seed, kPropertySeed + i, which every failure prints, so a failing
// case replays alone.

constexpr std::uint64_t kPropertySeed = 0x5eedfa17ull;
constexpr std::size_t kPropertyCases = 100'000;
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

constexpr FaultKind kAllKinds[] = {
    FaultKind::kDeviceLost, FaultKind::kTransient,   FaultKind::kStall,
    FaultKind::kCuDeath,    FaultKind::kReadError,   FaultKind::kCorruptRead,
    FaultKind::kWriteError};

/// Uniform in [lo, hi] (hi - lo < 2^64 - 1), or in [lo, lo + 16] half the
/// time so that small values come up often too.
std::uint64_t draw(SplitMix64& rng, std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t span =
      rng.below(2) == 0 ? std::min<std::uint64_t>(hi - lo, 16) : hi - lo;
  return lo + rng.below(span + 1);
}

/// `v` in decimal, now and then with the leading zeros the grammar allows.
std::string decimal(SplitMix64& rng, std::uint64_t v) {
  const std::size_t zeros = rng.below(4) == 0 ? rng.below(3) : 0;
  return std::string(zeros, '0') + std::to_string(v);
}

/// `text` with whitespace inserted anywhere; the parser drops all of it.
std::string sprinkle(SplitMix64& rng, const std::string& text) {
  static constexpr char kSpaces[] = {' ', '\t', '\n'};
  std::string out;
  for (const char c : text) {
    while (rng.below(8) == 0) out.push_back(kSpaces[rng.below(3)]);
    out.push_back(c);
  }
  return out;
}

/// A valid spec and the plan it must parse to: up to five clauses, fault
/// or global, with a later global overriding an earlier one.
std::pair<std::string, FaultPlan> generate_valid_plan(SplitMix64& rng) {
  FaultPlan want;
  std::string spec;
  const std::size_t clauses = rng.below(6);
  for (std::size_t i = 0; i < clauses; ++i) {
    std::string text;
    const std::uint64_t shape = rng.below(5);
    if (shape == 0) {
      const std::uint64_t ms = draw(rng, 1, 3'600'000);
      text = "watchdog-ms=" + decimal(rng, ms);
      want.watchdog_ns = ms * 1'000'000ull;
    } else if (shape == 1) {
      want.seed = rng.below(2) == 0 ? rng() : rng.below(100);
      text = "seed=" + decimal(rng, want.seed);
    } else {
      faults::FaultClause c;
      c.kind = kAllKinds[rng.below(7)];
      text = faults::to_string(c.kind) + "@";
      if (rng.below(3) == 0) {
        c.percent = static_cast<std::uint32_t>(draw(rng, 1, 100));
        text += "~" + decimal(rng, c.percent);
      } else {
        c.ordinal = draw(rng, 1, kU64Max);
        text += decimal(rng, c.ordinal);
        const std::uint64_t room = kU64Max - c.ordinal;  // count <= room
        if (room >= 1 && rng.below(2) == 0) {
          c.count = draw(rng, 1, room);
          text += "x" + decimal(rng, c.count);
        }
      }
      for (std::uint64_t p = rng.below(3); p > 0; --p) {
        if (c.kind == FaultKind::kStall) {
          c.stall_ms = draw(rng, 1, 60'000);
          text += ",ms=" + decimal(rng, c.stall_ms);
        } else if (c.kind == FaultKind::kCuDeath) {
          c.cu = draw(rng, 0, kMaxComputeUnits - 1);
          text += ",cu=" + decimal(rng, c.cu);
        }
      }
      want.clauses.push_back(c);
    }
    spec += sprinkle(rng, text);
    // Clause separator, with the occasional stray empty clause.
    if (i + 1 < clauses || rng.below(2) == 0) spec += ';';
    while (rng.below(8) == 0) spec += ';';
  }
  return {spec, want};
}

::testing::AssertionResult same_plan(const FaultPlan& got,
                                     const FaultPlan& want) {
  if (got.clauses.size() != want.clauses.size()) {
    return ::testing::AssertionFailure()
           << got.clauses.size() << " clauses, want " << want.clauses.size();
  }
  for (std::size_t i = 0; i < want.clauses.size(); ++i) {
    const faults::FaultClause& g = got.clauses[i];
    const faults::FaultClause& w = want.clauses[i];
    if (g.kind != w.kind || g.ordinal != w.ordinal || g.count != w.count ||
        g.percent != w.percent || g.stall_ms != w.stall_ms || g.cu != w.cu) {
      return ::testing::AssertionFailure()
             << "clause " << i << ": got " << faults::to_string(g.kind)
             << " ordinal " << g.ordinal << " count " << g.count
             << " percent " << g.percent << " ms " << g.stall_ms << " cu "
             << g.cu << ", want " << faults::to_string(w.kind) << " ordinal "
             << w.ordinal << " count " << w.count << " percent " << w.percent
             << " ms " << w.stall_ms << " cu " << w.cu;
    }
  }
  if (got.seed != want.seed || got.watchdog_ns != want.watchdog_ns) {
    return ::testing::AssertionFailure()
           << "seed " << got.seed << " watchdog_ns " << got.watchdog_ns
           << ", want seed " << want.seed << " watchdog_ns "
           << want.watchdog_ns;
  }
  return ::testing::AssertionSuccess();
}

TEST(FaultPlanProperty, GeneratedValidPlansRoundTripFieldForField) {
  for (std::size_t i = 0; i < kPropertyCases; ++i) {
    const std::uint64_t seed = kPropertySeed + i;
    SplitMix64 rng(seed);
    const auto [spec, want] = generate_valid_plan(rng);
    FaultPlan got;
    try {
      got = parse_fault_plan(spec);
    } catch (const std::exception& e) {
      FAIL() << "seed " << seed << ": valid spec '" << spec
             << "' was rejected: " << e.what();
    }
    ASSERT_TRUE(same_plan(got, want)) << "seed " << seed << ", spec '"
                                      << spec << "'";
  }
}

/// Random concatenations of grammar fragments, near misses and junk.
std::string token_soup(SplitMix64& rng) {
  static const char* const kTokens[] = {
      "device-lost", "transient", "stall", "cu-death", "read-error",
      "corrupt-read", "write-error", "device-gone", "stal", "@", "@", "@",
      "~", "x", "X", ",", ",", ";", ";", "=", "ms", "ms=", "cu", "cu=",
      "seed=", "seed", "watchdog-ms=", "watchdog-ms", "-", "+", " ", "\t",
      "0", "1", "2", "7", "00", "42", "99", "100", "101", "60000", "60001",
      "1023", "1024", "3600000", "3600001", "18446744073709551615",
      "18446744073709551616", "99999999999999999999999", "0x10", "1e3",
      ".", "\xff"};
  constexpr std::size_t kCount = sizeof(kTokens) / sizeof(kTokens[0]);
  std::string soup;
  for (std::uint64_t n = rng.below(14); n > 0; --n) {
    if (rng.below(16) == 0) {
      soup.push_back(static_cast<char>(1 + rng.below(255)));  // any byte
    } else {
      soup += kTokens[rng.below(kCount)];
    }
  }
  return soup;
}

/// What every accepted plan satisfies, whatever spec it came from.
::testing::AssertionResult plan_is_well_formed(const FaultPlan& plan) {
  for (const faults::FaultClause& c : plan.clauses) {
    const bool trigger_ok =
        c.percent == 0
            ? c.ordinal >= 1 && c.count >= 1 && c.ordinal + c.count > c.ordinal
            : c.percent <= 100 && c.ordinal == 0 && c.count == 1;
    const bool params_ok =
        c.stall_ms >= 1 && c.stall_ms <= 60'000 && c.cu < kMaxComputeUnits &&
        (c.kind == FaultKind::kStall || c.stall_ms == 20) &&
        (c.kind == FaultKind::kCuDeath || c.cu == 0);
    if (!trigger_ok || !params_ok) {
      return ::testing::AssertionFailure()
             << faults::to_string(c.kind) << " ordinal " << c.ordinal
             << " count " << c.count << " percent " << c.percent << " ms "
             << c.stall_ms << " cu " << c.cu;
    }
  }
  if (plan.watchdog_ns != 0 &&
      (plan.watchdog_ns % 1'000'000 != 0 ||
       plan.watchdog_ns > 3'600'000ull * 1'000'000ull)) {
    return ::testing::AssertionFailure()
           << "watchdog_ns " << plan.watchdog_ns;
  }
  return ::testing::AssertionSuccess();
}

TEST(FaultPlanProperty, TokenSoupsParseOrThrowOnlyPreconditionError) {
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kPropertyCases; ++i) {
    const std::uint64_t seed = kPropertySeed + i;
    SplitMix64 rng(seed);
    const std::string spec = token_soup(rng);
    try {
      const FaultPlan plan = parse_fault_plan(spec);
      ASSERT_TRUE(plan_is_well_formed(plan))
          << "seed " << seed << ", spec '" << spec << "'";
      ++parsed;
    } catch (const PreconditionError&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "seed " << seed << ": spec '" << spec
             << "' threw something other than PreconditionError: "
             << e.what();
    } catch (...) {
      FAIL() << "seed " << seed << ": spec '" << spec
             << "' threw a non-exception";
    }
  }
  // The soup must exercise both outcomes, not just one.
  EXPECT_GT(parsed, kPropertyCases / 100);
  EXPECT_GT(rejected, kPropertyCases / 100);
}

// ---------------------------------------------------------------------------
// Injector determinism.

TEST(FaultInjector, ProbabilisticFiringIsSeedReproducible) {
  const FaultPlan plan = parse_fault_plan("transient@~30;seed=7");
  faults::FaultInjector a(plan);
  faults::FaultInjector b(plan);
  std::size_t fired = 0;
  for (int i = 0; i < 200; ++i) {
    const auto fa = a.next_launch();
    const auto fb = b.next_launch();
    EXPECT_EQ(fa.transient, fb.transient) << "ordinal " << fa.ordinal;
    fired += fa.transient ? 1 : 0;
  }
  // ~30% of 200; generous bounds keep the test deterministic-by-seed but
  // robust to hash changes.
  EXPECT_GT(fired, 20u);
  EXPECT_LT(fired, 120u);
}

TEST(FaultInjector, DifferentSeedsProduceDifferentSchedules) {
  faults::FaultInjector a(parse_fault_plan("transient@~50;seed=1"));
  faults::FaultInjector b(parse_fault_plan("transient@~50;seed=2"));
  bool diverged = false;
  for (int i = 0; i < 64 && !diverged; ++i) {
    diverged = a.next_launch().transient != b.next_launch().transient;
  }
  EXPECT_TRUE(diverged);
}

// ---------------------------------------------------------------------------
// Launch-domain faults through a real device.

TEST(DeviceFaults, DeviceLostFiresOnTheExactLaunchOrdinal) {
  Device device = make_device();
  device.set_fault_plan(parse_fault_plan("device-lost@3"));
  Context context(device);
  CommandQueue queue(context);
  Buffer& buffer =
      context.create_buffer_of<double>(16, MemFlags::kReadWrite, "out");
  const Kernel kernel = make_scale_kernel();
  KernelArgs args;
  args.set(0, &buffer);
  const NDRange range{16, 8};

  queue.enqueue_ndrange(kernel, args, range);  // launch 1
  queue.enqueue_ndrange(kernel, args, range);  // launch 2
  try {
    queue.enqueue_ndrange(kernel, args, range);  // launch 3: boom
    FAIL() << "expected DeviceLostError";
  } catch (const faults::DeviceLostError& error) {
    EXPECT_EQ(error.kind(), FaultKind::kDeviceLost);
    EXPECT_EQ(error.context().ordinal, 3u);
    EXPECT_EQ(error.context().resource, "scale");
    EXPECT_EQ(error.context().device, "test-fpga");
    // run_command stamped the queue command sequence on the way out.
    EXPECT_EQ(error.context().sequence, 2u);
    EXPECT_NE(std::string(error.what()).find("device lost"),
              std::string::npos);
  }
  // Launch 4 and later are past the clause: the device serves again.
  queue.enqueue_ndrange(kernel, args, range);
  EXPECT_EQ(device.fault_injector()->fired_count(), 1u);
  EXPECT_EQ(device.fault_injector()->fired()[0].kind, FaultKind::kDeviceLost);
}

TEST(DeviceFaults, TransientWindowFiresForCountLaunchesThenHeals) {
  Device device = make_device();
  device.set_fault_plan(parse_fault_plan("transient@2x2"));
  Context context(device);
  CommandQueue queue(context);
  Buffer& buffer =
      context.create_buffer_of<double>(8, MemFlags::kReadWrite, "out");
  const Kernel kernel = make_scale_kernel();
  KernelArgs args;
  args.set(0, &buffer);
  const NDRange range{8, 8};

  queue.enqueue_ndrange(kernel, args, range);  // 1: fine
  EXPECT_THROW(queue.enqueue_ndrange(kernel, args, range),
               faults::TransientDeviceError);  // 2
  EXPECT_THROW(queue.enqueue_ndrange(kernel, args, range),
               faults::TransientDeviceError);  // 3
  queue.enqueue_ndrange(kernel, args, range);  // 4: healed
}

TEST(DeviceFaults, CuDeathCancelsTheRangeAndIsOneShot) {
  for (const std::size_t units : {std::size_t{1}, std::size_t{3}}) {
    Device device = make_device(units);
    device.set_fault_plan(parse_fault_plan("cu-death@1,cu=1"));
    Context context(device);
    CommandQueue queue(context);
    Buffer& buffer =
        context.create_buffer_of<double>(64, MemFlags::kReadWrite, "out");
    const Kernel kernel = make_scale_kernel();
    KernelArgs args;
    args.set(0, &buffer);
    const NDRange range{64, 4};  // 16 groups: exercises the worker pool

    const std::uint64_t enqueued = device.stats().kernels_enqueued;
    const std::uint64_t groups = device.stats().work_groups_executed;
    try {
      queue.enqueue_ndrange(kernel, args, range);
      FAIL() << "expected TransientDeviceError (units=" << units << ")";
    } catch (const faults::TransientDeviceError& error) {
      EXPECT_EQ(error.kind(), FaultKind::kCuDeath);
      // cu folded modulo the actual unit count.
      EXPECT_EQ(error.context().cu, units == 1 ? 0u : 1u);
    }
    // One contract on every unit count: the launch fails before any
    // work-group runs, so neither counter moves.
    EXPECT_EQ(device.stats().kernels_enqueued, enqueued) << "units=" << units;
    EXPECT_EQ(device.stats().work_groups_executed, groups)
        << "units=" << units;
    // One-shot: the retry runs to completion with correct results.
    queue.enqueue_ndrange(kernel, args, range);
    std::vector<double> out(64);
    queue.read<double>(buffer, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<double>(i) * 3.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Read/write-domain faults through the command queue.

TEST(QueueFaults, WriteAndReadErrorsCarryBufferAttribution) {
  Device device = make_device();
  device.set_fault_plan(parse_fault_plan("write-error@1;read-error@2"));
  Context context(device);
  CommandQueue queue(context);
  Buffer& buffer =
      context.create_buffer_of<double>(4, MemFlags::kReadWrite, "prices");
  const std::vector<double> data{1, 2, 3, 4};
  std::vector<double> out(4);

  try {
    queue.write<double>(buffer, std::span<const double>(data));
    FAIL() << "expected write fault";
  } catch (const faults::TransientDeviceError& error) {
    EXPECT_EQ(error.kind(), FaultKind::kWriteError);
    EXPECT_EQ(error.context().resource, "prices");
    EXPECT_EQ(error.context().ordinal, 1u);
  }
  queue.write<double>(buffer, std::span<const double>(data));  // write 2: ok
  queue.read<double>(buffer, std::span<double>(out));          // read 1: ok
  EXPECT_EQ(out, data);
  EXPECT_THROW(queue.read<double>(buffer, std::span<double>(out)),
               faults::TransientDeviceError);  // read 2
}

TEST(QueueFaults, CorruptReadFlipsBytesSilently) {
  Device device = make_device();
  device.set_fault_plan(parse_fault_plan("corrupt-read@1"));
  Context context(device);
  CommandQueue queue(context);
  Buffer& buffer =
      context.create_buffer_of<double>(4, MemFlags::kReadWrite, "prices");
  const std::vector<double> data{1, 2, 3, 4};
  std::vector<double> corrupted(4);
  std::vector<double> clean(4);

  queue.write<double>(buffer, std::span<const double>(data));
  queue.read<double>(buffer, std::span<double>(corrupted));  // read 1: lies
  queue.read<double>(buffer, std::span<double>(clean));      // read 2: truth
  EXPECT_EQ(clean, data);
  EXPECT_NE(corrupted, data);                  // silent corruption...
  EXPECT_EQ(device.fault_injector()->fired_count(), 1u);  // ...but logged
  EXPECT_EQ(device.fault_injector()->fired()[0].kind, FaultKind::kCorruptRead);
}

// ---------------------------------------------------------------------------
// Watchdog: a stalled command is declared lost by the queue.

TEST(QueueFaults, WatchdogDeclaresAStalledLaunchLost) {
  Device device = make_device();
  device.set_fault_plan(parse_fault_plan("stall@1,ms=30;watchdog-ms=5"));
  Context context(device);
  CommandQueue queue(context, QueueMode::kDeferred);
  Buffer& buffer =
      context.create_buffer_of<double>(8, MemFlags::kReadWrite, "out");
  const Kernel kernel = make_scale_kernel();
  KernelArgs args;
  args.set(0, &buffer);

  const EventId launch = queue.enqueue_ndrange(kernel, args, NDRange{8, 8});
  try {
    queue.finish();
    FAIL() << "expected the watchdog to declare the device lost";
  } catch (const faults::DeviceLostError& error) {
    EXPECT_EQ(error.kind(), FaultKind::kDeviceLost);
    EXPECT_EQ(error.context().sequence, launch.sequence);
    EXPECT_NE(std::string(error.what()).find("watchdog"), std::string::npos);
  }
  // The timed-out command's event stays incomplete (result untrusted).
  EXPECT_FALSE(queue.event(launch).completed);
  // Both the stall and the watchdog verdict are in the fired log.
  const auto fired = device.fault_injector()->fired();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].kind, FaultKind::kStall);
  EXPECT_EQ(fired[1].kind, FaultKind::kDeviceLost);
}

// ---------------------------------------------------------------------------
// Tracing: fired faults are instant ('i') events on the device lanes.

TEST(FaultTrace, FiredFaultsEmitInstantEvents) {
  trace::Tracer tracer;
  Device device = make_device();
  device.set_tracer(&tracer);
  device.set_fault_plan(parse_fault_plan("transient@1"));
  Context context(device);
  CommandQueue queue(context);
  Buffer& buffer =
      context.create_buffer_of<double>(8, MemFlags::kReadWrite, "out");
  const Kernel kernel = make_scale_kernel();
  KernelArgs args;
  args.set(0, &buffer);

  EXPECT_THROW(queue.enqueue_ndrange(kernel, args, NDRange{8, 8}),
               faults::TransientDeviceError);
  queue.enqueue_ndrange(kernel, args, NDRange{8, 8});  // healthy launch

  const auto events = tracer.events();
  const auto fault_event =
      std::find_if(events.begin(), events.end(), [](const auto& e) {
        return e.category == "fault";
      });
  ASSERT_NE(fault_event, events.end());
  EXPECT_EQ(fault_event->phase, 'i');
  EXPECT_EQ(fault_event->name, "fault:transient");

  std::ostringstream json;
  tracer.write_json(json);
  EXPECT_NE(json.str().find(R"("ph":"i")"), std::string::npos);
  EXPECT_NE(json.str().find(R"("s":"t")"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Disabled-mode guarantee: an armed-but-never-firing plan (and no plan at
// all) produce bit-identical prices, RuntimeStats, and event streams.

TEST(FaultParity, NeverFiringPlanIsBitIdenticalToNoPlan) {
  const auto run = [](Device& device) {
    Context context(device);
    CommandQueue queue(context);
    Buffer& buffer =
        context.create_buffer_of<double>(64, MemFlags::kReadWrite, "out");
    const Kernel kernel = make_scale_kernel();
    KernelArgs args;
    args.set(0, &buffer);
    queue.enqueue_ndrange(kernel, args, NDRange{64, 8});
    std::vector<double> out(64);
    queue.read<double>(buffer, out);
    return std::make_pair(out, device.stats());
  };

  Device vanilla = make_device(2);
  Device armed = make_device(2);
  // A plan whose clauses can never fire in this run: one launch + one
  // read happen, the triggers sit far beyond both.
  armed.set_fault_plan(
      parse_fault_plan("device-lost@1000;read-error@1000;write-error@1000"));

  const auto [vanilla_out, vanilla_stats] = run(vanilla);
  const auto [armed_out, armed_stats] = run(armed);
  EXPECT_EQ(vanilla_out, armed_out);  // bitwise: EXPECT_EQ on doubles
  EXPECT_EQ(vanilla_stats, armed_stats);
  EXPECT_EQ(armed.fault_injector()->fired_count(), 0u);
}

}  // namespace
}  // namespace binopt::ocl
