// The work-item's view of a running kernel: WorkItemCtx (ids, global and
// local memory) and the local-memory accessor LocalSpan. A work-item has
// no barrier call: a kernel that synchronises is written as phases (see
// kernel.h), and the executor crosses the barrier between them.
//
// A header of its own so that kernel.h sees a complete WorkItemCtx:
// make_phased_kernel instantiates a phased kernel's item loop together
// with its body, once per AccessPolicy, and that loop moves a ctx from
// item to item.
//
// A ctx carries what its local-memory accessors need: the counters they
// count into, their analyzer hooks (null when off) and the allocations
// the ctx has bound. It binds each local_array the first time it is asked
// for and reuses the binding for every later item it is moved to, still
// checking each caller's size. A phased item loop makes a fresh ctx for
// each (group, phase) on its own stack; with the analyzer off, that ctx
// has no local hooks and counts local traffic into a per-phase tally the
// loop owns, so the compiler can keep the binding and the tally out of
// memory across the items (see kernel.h). Global accessors read the
// group's counters and hooks, on every path.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.h"
#include "ocl/analyzer/shadow.h"
#include "ocl/buffer.h"
#include "ocl/stats.h"

namespace binopt::ocl {

class WorkGroupExecutor;
class WorkItemCtx;

/// How a phased kernel's item loop checks and counts memory accesses.
/// make_phased_kernel compiles one loop per policy and the executor picks
/// one per launch: kArmed when the hazard analyzer is on, kOff otherwise.
enum class AccessPolicy {
  kOff,    ///< bounds checks only; local traffic tallied per phase
  kArmed,  ///< every access goes through the analyzer and the counters
};

namespace detail {

/// One named local-memory allocation within a group's arena.
struct LocalAlloc {
  std::size_t offset = 0;
  std::size_t bytes = 0;
};

/// Per-group shared state (local arena + allocation log).
/// The arena storage itself is owned by the executor and reused across
/// groups (real local memory is likewise uninitialised between groups).
struct GroupState {
  std::byte* arena = nullptr;
  std::size_t arena_capacity = 0;
  std::size_t arena_used = 0;
  std::vector<LocalAlloc> allocs;
  RuntimeStats* stats = nullptr;
  analyzer::GroupAnalysis* analysis = nullptr;  ///< null = analyzer off
};

/// A ctx's binding of one group allocation: where it lives and its size.
struct BoundLocal {
  std::byte* data = nullptr;
  std::size_t bytes = 0;
  std::size_t offset = 0;  ///< within the arena
};

/// Makes the group's allocation `index` of `bytes` bytes (the first
/// work-item to ask) or rejects a divergent size from `work_item`;
/// returns its arena offset. Out of line and by value, so the ctx that
/// asks never has to live in memory.
std::size_t allocate_local(GroupState& group, std::size_t index,
                           std::size_t bytes, std::size_t work_item);

/// Raises LocalSpan's out-of-bounds error. Out of line and by value, so a
/// LocalSpan on the hot path never has to live in memory.
[[noreturn]] void local_out_of_bounds(const char* access, std::size_t i,
                                      std::size_t count);

/// Moves a ctx onto another work-item of its group, and makes the ctx a
/// phased item loop runs. Executor-side only: kernel bodies see their own
/// item and cannot re-point the ctx.
struct WorkItemCursor {
  static void move_to(WorkItemCtx& ctx, std::size_t local_id);
  /// A copy of `group` (the executor's ctx of the running group) with
  /// nothing bound, counting its local traffic into `local_counts`, with
  /// the local analyzer hooks only under kArmed.
  static WorkItemCtx for_phase(const WorkItemCtx& group, AccessPolicy policy,
                               RuntimeStats& local_counts);
  /// The counters of the group's device shard.
  static RuntimeStats& group_stats(const WorkItemCtx& group);
};

}  // namespace detail

/// Typed, traffic-counted view of a local-memory array.
template <typename T>
class LocalSpan {
public:
  LocalSpan(T* data, std::size_t count, RuntimeStats& stats,
            analyzer::GroupAnalysis* analysis = nullptr,
            std::size_t work_item = 0, std::size_t arena_offset = 0,
            std::size_t alloc_index = 0)
      : data_(data),
        count_(count),
        stats_(&stats),
        analysis_(analysis),
        work_item_(work_item),
        arena_offset_(arena_offset),
        alloc_index_(alloc_index) {}

  [[nodiscard]] std::size_t size() const { return count_; }

  [[nodiscard]] T get(std::size_t i) const {
    if (analysis_ != nullptr) {
      // Analyzer mode: records races/uninitialised reads and suppresses
      // out-of-bounds accesses (returning T{}) so execution continues.
      if (!analysis_->local_read(work_item_, alloc_index_, arena_offset_, i,
                                 count_, sizeof(T))) {
        return T{};
      }
    } else {
      if (i >= count_) detail::local_out_of_bounds("load", i, count_);
    }
    stats_->local_load_bytes += sizeof(T);
    return data_[i];
  }

  void set(std::size_t i, T value) {
    if (analysis_ != nullptr) {
      if (!analysis_->local_write(work_item_, alloc_index_, arena_offset_, i,
                                  count_, sizeof(T))) {
        return;
      }
    } else {
      if (i >= count_) detail::local_out_of_bounds("store", i, count_);
    }
    stats_->local_store_bytes += sizeof(T);
    data_[i] = value;
  }

private:
  T* data_;
  std::size_t count_;
  RuntimeStats* stats_;
  analyzer::GroupAnalysis* analysis_;
  std::size_t work_item_;
  std::size_t arena_offset_;
  std::size_t alloc_index_;
};

/// Execution context handed to the kernel body — the work-item's window
/// onto its ids and the three OpenCL memory levels.
class WorkItemCtx {
public:
  [[nodiscard]] std::size_t global_id() const { return global_id_; }
  [[nodiscard]] std::size_t local_id() const { return local_id_; }
  [[nodiscard]] std::size_t group_id() const { return group_id_; }
  [[nodiscard]] std::size_t local_size() const { return local_size_; }
  [[nodiscard]] std::size_t global_size() const { return global_size_; }
  [[nodiscard]] std::size_t num_groups() const {
    return global_size_ / local_size_;
  }

  /// Global-memory accessor for a bound buffer.
  template <typename T>
  [[nodiscard]] GlobalSpan<T> global(Buffer& buffer) const {
    return GlobalSpan<T>(buffer, *group_->stats, group_->analysis, local_id_);
  }

  /// Local-memory array, shared across the group. Every work-item must
  /// issue the same sequence of local_array calls (sizes included), which
  /// is exactly OpenCL's static local allocation discipline.
  template <typename T>
  [[nodiscard]] LocalSpan<T> local_array(std::size_t count) {
    const std::size_t bytes = count * sizeof(T);
    const std::size_t index = alloc_cursor_++;
    // Inline: an allocation this ctx has bound, at the same size. The
    // first request, every failure and allocations past kBoundLocals go
    // through the group's log out of line.
    const detail::BoundLocal local =
        index < bound_count_ && bound_[index].bytes == bytes
            ? bound_[index]
            : bind_local(index, bytes);
    return LocalSpan<T>(reinterpret_cast<T*>(local.data), count,
                        *local_counts_, analysis_, local_id_, local.offset,
                        index);
  }

private:
  friend class WorkGroupExecutor;
  friend struct detail::WorkItemCursor;

  /// Allocations a ctx keeps bound; later ones are looked up per call.
  static constexpr std::size_t kBoundLocals = 4;

  /// Allocates (or looks up and size-checks) allocation `index` in the
  /// group's log and binds it to this ctx.
  detail::BoundLocal bind_local(std::size_t index, std::size_t bytes) {
    const std::size_t offset =
        detail::allocate_local(*group_, index, bytes, local_id_);
    const detail::BoundLocal local{group_->arena + offset, bytes, offset};
    if (index < kBoundLocals) {
      bound_[index] = local;
      bound_count_ = index + 1;
    }
    return local;
  }

  std::size_t global_id_ = 0;
  std::size_t local_id_ = 0;
  std::size_t group_id_ = 0;
  std::size_t local_size_ = 0;
  std::size_t global_size_ = 0;
  std::size_t alloc_cursor_ = 0;
  detail::GroupState* group_ = nullptr;
  // The local-memory accessors' view: what they count into, their
  // analyzer hooks (null = off) and the allocations this ctx has bound.
  RuntimeStats* local_counts_ = nullptr;
  analyzer::GroupAnalysis* analysis_ = nullptr;
  std::size_t bound_count_ = 0;
  detail::BoundLocal bound_[kBoundLocals];
};

namespace detail {

inline void WorkItemCursor::move_to(WorkItemCtx& ctx, std::size_t local_id) {
  ctx.local_id_ = local_id;
  ctx.global_id_ = ctx.group_id_ * ctx.local_size_ + local_id;
  ctx.alloc_cursor_ = 0;
}

inline WorkItemCtx WorkItemCursor::for_phase(const WorkItemCtx& group,
                                             AccessPolicy policy,
                                             RuntimeStats& local_counts) {
  WorkItemCtx ctx;
  ctx.group_id_ = group.group_id_;
  ctx.local_size_ = group.local_size_;
  ctx.global_size_ = group.global_size_;
  ctx.local_counts_ = &local_counts;
  ctx.analysis_ =
      policy == AccessPolicy::kArmed ? group.group_->analysis : nullptr;
  ctx.group_ = group.group_;
  return ctx;
}

inline RuntimeStats& WorkItemCursor::group_stats(const WorkItemCtx& group) {
  return *group.group_->stats;
}

}  // namespace detail
}  // namespace binopt::ocl
