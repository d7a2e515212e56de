// Deterministic fault injection for the simulated OpenCL runtime.
//
// The paper's deployment story assumes accelerators running at data-centre
// scale, and devices at scale hang, misbehave, and die. This layer makes
// failure a first-class, *testable* input: a FaultPlan describes exactly
// when the simulated runtime should fail (by command ordinal, or
// probabilistically from a seed), and a per-device FaultInjector fires the
// plan at well-defined points:
//
//   launch domain (Device::execute, ordinal = kernel launches on the device)
//     device-lost    fatal launch failure   -> DeviceLostError
//     transient      retryable launch error -> TransientDeviceError
//     stall          the launch sleeps `ms` before running; if the plan arms
//                    a watchdog (watchdog-ms=) the command queue detects the
//                    overrun and raises DeviceLostError from finish()
//     cu-death       compute-unit worker `cu` dies at the start of the
//                    launch -> TransientDeviceError from Device::execute
//                    before any work-group runs (no counter moves)
//   read domain (CommandQueue::enqueue_read execution ordinal)
//     read-error     the transfer fails     -> TransientDeviceError
//     corrupt-read   the transfer *silently* corrupts the destination bytes
//                    (flips the leading bytes) — detectable only by a
//                    checksum or a parity harness, exactly like real DMA
//                    corruption
//   write domain (CommandQueue::enqueue_write execution ordinal)
//     write-error    the transfer fails     -> TransientDeviceError
//
// Every fired fault is recorded with full attribution (device, kernel or
// buffer, domain ordinal, queue command sequence when known) and, when a
// tracer is attached, emitted as an instant event on the device's lanes.
// With no plan attached a device pays one null-pointer test per injection
// point and behaviour is bit-identical (asserted by tests/ocl/test_faults).
//
// Spec grammar (BINOPT_OCL_FAULTS or Device::set_fault_plan):
//
//   spec    := clause (';' clause)*
//   clause  := global | fault
//   global  := 'watchdog-ms=' uint | 'seed=' uint
//   fault   := kind '@' trigger (',' param)*
//   trigger := ordinal ['x' count]     fires at ordinals [N, N+count), 1-based
//            | '~' percent             fires each ordinal with probability
//                                      percent/100, seeded (deterministic)
//   param   := 'ms=' uint              (stall only, sleep duration, >= 1)
//            | 'cu=' uint              (cu-death only, < kMaxComputeUnits)
//
// Example: "device-lost@2;transient@4x2;stall@8,ms=40;cu-death@6;
//           read-error@3;watchdog-ms=10;seed=42"
// Malformed specs are rejected with a PreconditionError naming the clause,
// the same strict discipline as resolve_compute_units.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"

namespace binopt::ocl::faults {

/// What kind of failure a clause injects.
enum class FaultKind {
  kDeviceLost,    ///< fatal launch failure
  kTransient,     ///< retryable launch failure
  kStall,         ///< launch sleeps; watchdog (if armed) declares it lost
  kCuDeath,       ///< one compute-unit worker dies during the launch
  kReadError,     ///< enqueue_read fails
  kCorruptRead,   ///< enqueue_read silently corrupts the destination
  kWriteError,    ///< enqueue_write fails
};

[[nodiscard]] std::string to_string(FaultKind kind);

/// Which per-device ordinal counter a fault kind fires against.
enum class FaultDomain { kLaunch, kRead, kWrite };

[[nodiscard]] FaultDomain domain_of(FaultKind kind);

/// One parsed fault clause.
struct FaultClause {
  FaultKind kind = FaultKind::kTransient;
  /// Deterministic trigger: fires at domain ordinals [ordinal,
  /// ordinal + count), 1-based. 0 means "probabilistic instead".
  std::uint64_t ordinal = 0;
  std::uint64_t count = 1;
  /// Probabilistic trigger: fire with probability percent/100 at every
  /// ordinal, from the plan seed (0 = use the deterministic trigger).
  std::uint32_t percent = 0;
  /// stall: how long the launch sleeps (milliseconds).
  std::uint64_t stall_ms = 20;
  /// cu-death: which compute unit dies (folded modulo the device's actual
  /// unit count at fire time).
  std::uint64_t cu = 0;
};

/// An immutable, copyable fault schedule. Attach to a device with
/// Device::set_fault_plan or process-wide with BINOPT_OCL_FAULTS.
struct FaultPlan {
  std::vector<FaultClause> clauses;
  /// Seeds the probabilistic triggers; two injectors built from the same
  /// plan fire identically.
  std::uint64_t seed = 0;
  /// Command watchdog deadline enforced by CommandQueue (nanoseconds);
  /// 0 = watchdog disarmed.
  std::uint64_t watchdog_ns = 0;

  [[nodiscard]] bool empty() const {
    return clauses.empty() && watchdog_ns == 0;
  }
};

/// Parses and strictly validates a spec string (grammar above). Throws
/// PreconditionError naming the offending clause on any malformed input:
/// unknown fault kinds, zero/overflowing ordinals or counts, zero stall or
/// watchdog durations, out-of-range percentages or compute units.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& spec);

/// The plan armed by BINOPT_OCL_FAULTS, if any (parsed once per process;
/// a malformed value throws on first device construction).
[[nodiscard]] const FaultPlan* env_fault_plan();

/// Where a fault fired: everything needed to attribute the failure.
struct FaultContext {
  std::string device;       ///< device name
  std::string resource;     ///< kernel name (launch) or buffer name (I/O)
  FaultDomain domain = FaultDomain::kLaunch;
  std::uint64_t ordinal = 0;        ///< 1-based ordinal within the domain
  std::uint64_t cu = 0;             ///< compute unit (cu-death only)
  /// Queue command sequence, when the fault surfaced through a command
  /// queue (kNoSequence when not applicable / not yet known).
  std::uint64_t sequence = kNoSequence;

  static constexpr std::uint64_t kNoSequence = ~std::uint64_t{0};

  [[nodiscard]] std::string describe() const;
};

/// Base class of every injected-fault error. Carries full attribution so a
/// serving layer can log *which* device/kernel/launch failed.
class FaultError : public Error {
public:
  FaultError(FaultKind kind, FaultContext context, const std::string& what)
      : Error(what), kind_(kind), context_(std::move(context)) {}

  [[nodiscard]] FaultKind kind() const { return kind_; }
  [[nodiscard]] const FaultContext& context() const { return context_; }

  /// Stamps the queue command sequence once it is known (run_command
  /// catches in-flight FaultErrors by reference and rethrows the same
  /// object, so the attribution survives to the caller).
  void set_sequence(std::uint64_t sequence) { context_.sequence = sequence; }

private:
  FaultKind kind_;
  FaultContext context_;
};

/// Retryable failure: the launch/transfer failed but the device is expected
/// to accept future commands (maps to a retry at the serving layer).
class TransientDeviceError : public FaultError {
public:
  using FaultError::FaultError;
};

/// Fatal failure: the device is gone (CL_DEVICE_NOT_AVAILABLE class).
/// A serving layer should quarantine the backend and fail traffic over.
class DeviceLostError : public FaultError {
public:
  using FaultError::FaultError;
};

/// One fired fault, kept for tests/diagnostics.
struct FaultRecord {
  FaultKind kind = FaultKind::kTransient;
  FaultContext context;
};

/// What a launch-domain check decided (at most one evaluation per launch).
struct LaunchFaults {
  std::uint64_t ordinal = 0;  ///< this launch's 1-based ordinal
  bool device_lost = false;
  bool transient = false;
  std::uint64_t stall_ns = 0;            ///< 0 = no stall
  std::optional<std::uint64_t> kill_cu;  ///< compute unit to kill
};

/// What a read-domain check decided.
struct ReadFaults {
  std::uint64_t ordinal = 0;
  bool error = false;
  bool corrupt = false;
};

/// Per-device runtime state of a FaultPlan: ordinal counters per domain
/// plus the fired-fault log. Thread-safe (ordinals are atomic; the log has
/// its own mutex) so multi-queue devices stay race-free under TSan.
class FaultInjector {
public:
  explicit FaultInjector(FaultPlan plan);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] std::uint64_t watchdog_ns() const { return plan_.watchdog_ns; }

  /// Advances the launch ordinal and evaluates every launch-domain clause.
  [[nodiscard]] LaunchFaults next_launch();
  /// Advances the read ordinal and evaluates the read-domain clauses.
  [[nodiscard]] ReadFaults next_read();
  /// Advances the write ordinal; true = this write must fail.
  [[nodiscard]] std::pair<std::uint64_t, bool> next_write();

  /// Appends to the fired-fault log (called by the injection sites with
  /// their full context).
  void record(FaultKind kind, const FaultContext& context);

  /// Snapshot of every fault fired so far (copies under the lock).
  [[nodiscard]] std::vector<FaultRecord> fired() const;
  [[nodiscard]] std::size_t fired_count() const;

private:
  [[nodiscard]] bool clause_fires(const FaultClause& clause,
                                  std::uint64_t ordinal) const;

  FaultPlan plan_;
  std::atomic<std::uint64_t> launches_{0};
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> writes_{0};
  mutable std::mutex log_mutex_;
  std::vector<FaultRecord> log_;
};

}  // namespace binopt::ocl::faults
