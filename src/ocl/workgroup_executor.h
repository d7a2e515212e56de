// NDRange execution engine: work-groups, work-items, barriers, local memory.
//
// One executor drives work-groups sequentially on the calling thread, in
// one of two ways per kernel form:
//
//   - Phased (coalesced): a kernel written as barrier-delimited phases
//     (PhasedBody, make_phased_kernel) runs each phase as a plain loop
//     over the group's work-items, work-item 0 first — MCUDA/pocl-style
//     work-item coalescing. The item loop is compiled with the kernel
//     body (make_phased_kernel instantiates it once per AccessPolicy), so
//     the executor makes one call per (group, phase), picking the
//     analyzer-armed or analyzer-off instance, and the body is inlined
//     into the loop. Between two phases the whole group crosses one
//     barrier. Private memory that outlives a barrier lives in a per-item
//     state arena the executor owns and reuses; a warmed-up executor
//     allocates nothing per group. This is kernel IV.B's form.
//   - Lambda: a body with no barriers runs as one direct call per
//     work-item, items in local-id order (kernel IV.A).
//
// A barrier is a phase boundary and nothing else, so every work-item of a
// group crosses every barrier by construction: the divergent barrier that
// real OpenCL leaves undefined cannot be written. For kernels described
// by an IR, the static lint (static-divergent-barrier) and the symbolic
// verifier's convergence proof check the same property.
//
// Device-level parallelism (independent work-groups on parallel compute
// units) is layered on top by ComputeUnitScheduler: each worker thread
// owns a *private* executor — private state and local-memory arenas — and
// pulls disjoint group ranges through execute_group(). An executor
// instance itself is strictly single-threaded.
//
// With the hazard analyzer enabled (enable_analysis), the executor also
// maintains barrier-epoch bookkeeping: every time the whole group crosses
// a barrier the epoch advances, and every local/global access is recorded
// against the current epoch in the analyzer's shadow memory. Two accesses
// to the same local byte by different work-items in the same epoch have no
// barrier between them — OpenCL's intra-group race — and are reported with
// work-item coordinates and both access sites.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/error.h"
#include "ocl/analyzer/shadow.h"
#include "ocl/buffer.h"
#include "ocl/kernel.h"
#include "ocl/stats.h"
#include "ocl/types.h"
#include "ocl/work_item.h"

namespace binopt::ocl {

/// Drives a full NDRange: phased kernels as coalesced loops, lambda
/// kernels as direct calls.
class WorkGroupExecutor {
public:
  WorkGroupExecutor(std::size_t local_mem_bytes,
                    std::size_t max_workgroup_size);

  /// Executes every work-group of `range` with the given kernel and args.
  /// Updates `stats` with work-item counts, barrier counts, and memory
  /// traffic generated through the ctx accessors.
  void execute(const Kernel& kernel, const KernelArgs& args, NDRange range,
               RuntimeStats& stats);

  /// Throws unless (kernel, args, range) form a launchable NDRange on this
  /// executor. execute() calls this itself; the compute-unit scheduler
  /// calls it once on the enqueuing thread before fanning groups out.
  void validate(const Kernel& kernel, const KernelArgs& args,
                NDRange range) const;

  /// Executes ONE work-group of an already-validated range. Counts the
  /// group's work-items/barriers/traffic into `stats` (does not touch
  /// kernels_enqueued). Used by compute-unit workers to run disjoint
  /// group subsets on private executors.
  void execute_group(const Kernel& kernel, const KernelArgs& args,
                     NDRange range, std::size_t group_id, RuntimeStats& stats);

  /// Arms the hazard analyzer for every group this executor runs: accesses
  /// are shadow-tracked and diagnostics delivered to `report`. Call before
  /// execution starts (the compute-unit scheduler does this per worker).
  void enable_analysis(analyzer::HazardReport& report,
                       const analyzer::AnalyzerConfig& config);

  /// Merges this executor's per-buffer written-byte shards into the
  /// buffers' base shadows (no-op with the analyzer off). Called on the
  /// enqueuing thread after a range completes.
  void flush_analysis();

  [[nodiscard]] analyzer::GroupAnalysis* analysis() {
    return analysis_.get();
  }

private:
  void run_group(const Kernel& kernel, const KernelArgs& args, NDRange range,
                 std::size_t group_id, RuntimeStats& stats);
  void run_phased_group(const PhasedBody& phased, const KernelArgs& args,
                        const WorkItemCtx& ctx);

  std::size_t local_mem_bytes_;
  std::size_t max_workgroup_size_;
  std::vector<std::byte> arena_;  ///< local-memory storage, reused per group
  /// Phased kernels' per-work-item private state, reused per group.
  std::vector<std::max_align_t> state_arena_;
  detail::GroupState group_;  ///< the running group's shared state
  std::unique_ptr<analyzer::GroupAnalysis> analysis_;  ///< null = off
};

}  // namespace binopt::ocl
