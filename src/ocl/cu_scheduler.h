// Parallel compute-unit scheduler: maps independent work-groups of one
// NDRange onto a persistent pool of host worker threads, one per modelled
// compute unit (FPGA pipeline replica, GPU SM, CPU core).
//
// OpenCL guarantees nothing about inter-group ordering, so any assignment
// of groups to units is a conformant schedule. Each worker owns a private
// WorkGroupExecutor (its own private-state and local-memory arenas — local
// memory is per-compute-unit on real devices too) and pulls chunks of
// consecutive group ids from an atomic cursor. Counters are collected in
// per-worker RuntimeStats shards and merged on the enqueuing thread after
// the range completes; since every counter is an unsigned sum, the merged
// totals are bit-identical to a serial run of the same kernel. A single
// unit, or a single group, runs serially on the enqueuing thread.
//
// Error contract: if any work-group throws, the scheduler stops handing
// out new chunks, lets every worker finish its in-flight group (a throwing
// group unwinds its executor's item loop and leaves the executor
// reusable), and rethrows the recorded error — preferring the
// lowest-numbered failing group, which is the error a serial run would
// have surfaced first — on the enqueuing thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ocl/kernel.h"
#include "ocl/stats.h"
#include "ocl/trace/tracer.h"
#include "ocl/types.h"
#include "ocl/workgroup_executor.h"

namespace binopt::ocl {

class ComputeUnitScheduler {
public:
  /// `compute_units` must be >= 1. Worker threads are started lazily on
  /// the first NDRange that can use more than one unit.
  ComputeUnitScheduler(std::size_t compute_units, std::size_t local_mem_bytes,
                       std::size_t max_workgroup_size);
  ~ComputeUnitScheduler();

  ComputeUnitScheduler(const ComputeUnitScheduler&) = delete;
  ComputeUnitScheduler& operator=(const ComputeUnitScheduler&) = delete;

  [[nodiscard]] std::size_t compute_units() const { return units_.size(); }

  /// Arms the hazard analyzer on every worker's private executor: each
  /// compute unit keeps its own shadow shard (exactly like its RuntimeStats
  /// shard) and reports into the shared, mutex-guarded `report`. Shards
  /// are merged into the buffers' base shadows after each range. Call
  /// before the first execute().
  void enable_analysis(analyzer::HazardReport& report,
                       const analyzer::AnalyzerConfig& config);

  /// Attaches (or detaches, with nullptr) a tracer: every executed
  /// work-group is captured as a (cu, group, start, end) span in the
  /// worker's private shard and folded into the tracer on the enqueuing
  /// thread after the range — same contention-free discipline as the
  /// RuntimeStats shards. `pid` is the device's trace process id; spans
  /// land on thread lanes 1 + cu (lane 0 is the command queue). With no
  /// tracer the per-range cost is one branch; stats stay bit-identical.
  void set_tracer(trace::Tracer* tracer, std::uint32_t pid);

  /// Runs one NDRange to completion and merges all counters into `stats`.
  /// Synchronous: returns (or throws) only after every group has finished
  /// or the range has been cancelled and drained. Not itself thread-safe —
  /// one scheduler serves one in-order command queue at a time.
  void execute(const Kernel& kernel, const KernelArgs& args, NDRange range,
               RuntimeStats& stats);

private:
  /// One modelled compute unit: a worker thread plus its private execution
  /// engine and counter shard.
  struct Unit {
    Unit(std::uint32_t index, std::size_t local_mem_bytes,
         std::size_t max_workgroup_size)
        : index(index), executor(local_mem_bytes, max_workgroup_size) {}
    const std::uint32_t index;  ///< compute-unit number (trace lane 1+index)
    WorkGroupExecutor executor;
    RuntimeStats shard;
    /// Work-group spans captured while a tracer is attached; reset per
    /// range, merged into the tracer by the enqueuing thread.
    std::vector<trace::WorkGroupSpan> spans;
    std::thread thread;
  };

  void start_workers();
  void worker_loop(std::size_t unit_index);
  void run_chunks(Unit& unit);
  /// Runs group `group_id` on `unit`'s executor, counting into `stats`,
  /// and with a tracer attached captures its span in the unit's shard.
  void run_group(Unit& unit, const Kernel& kernel, const KernelArgs& args,
                 NDRange range, std::size_t group_id, RuntimeStats& stats);
  void record_error(std::exception_ptr error, std::size_t group_id);
  /// Folds every unit's span shard into the tracer (unit order) and
  /// clears the shards. No-op without a tracer.
  void flush_spans(const Kernel& kernel);

  std::vector<std::unique_ptr<Unit>> units_;

  trace::Tracer* tracer_ = nullptr;
  std::uint32_t trace_pid_ = 0;

  // Job hand-off. The enqueuing thread publishes the job fields under
  // `mutex_`, bumps `job_generation_`, and wakes the workers; they answer
  // by decrementing `workers_remaining_`. Group distribution itself stays
  // lock-free through `next_group_`.
  std::mutex mutex_;
  std::condition_variable job_ready_;
  std::condition_variable job_done_;
  std::uint64_t job_generation_ = 0;
  std::size_t workers_remaining_ = 0;
  bool stopping_ = false;
  bool workers_started_ = false;

  const Kernel* job_kernel_ = nullptr;
  const KernelArgs* job_args_ = nullptr;
  NDRange job_range_{};
  std::size_t job_num_groups_ = 0;
  std::size_t job_chunk_groups_ = 1;
  std::atomic<std::size_t> next_group_{0};
  std::atomic<bool> cancelled_{false};

  // First-error bookkeeping (lowest failing group id wins).
  std::mutex error_mutex_;
  std::exception_ptr error_;
  std::size_t error_group_ = 0;
};

/// Hard ceiling on the modelled compute-unit count: far above any device
/// this repo models, low enough that a mis-set environment variable can
/// never ask the host for millions of worker threads.
inline constexpr std::size_t kMaxComputeUnits = 1024;

/// Resolves the number of compute units a device should schedule with:
/// the BINOPT_OCL_COMPUTE_UNITS environment variable when set (debug knob,
/// beats everything; must be a pure digit string in [1, kMaxComputeUnits]),
/// otherwise an explicit DeviceLimits value, otherwise the host's hardware
/// concurrency (never less than 1).
[[nodiscard]] std::size_t resolve_compute_units(std::size_t limit_value);

}  // namespace binopt::ocl
