// The work-item's view of a running kernel: WorkItemCtx (ids, barrier,
// global and local memory) and the local-memory accessor LocalSpan.
//
// A header of its own so that kernel.h sees a complete WorkItemCtx:
// make_phased_kernel instantiates a phased kernel's item loop together
// with its body, and that loop moves the ctx from item to item.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.h"
#include "ocl/analyzer/shadow.h"
#include "ocl/buffer.h"
#include "ocl/stats.h"

namespace binopt::ocl {

class Fiber;
class WorkGroupExecutor;
class WorkItemCtx;

namespace detail {

/// One named local-memory allocation within a group's arena.
struct LocalAlloc {
  std::size_t offset = 0;
  std::size_t bytes = 0;
};

/// Per-group shared state (local arena + allocation log + barrier phase).
/// The arena storage itself is owned by the executor and reused across
/// groups (real local memory is likewise uninitialised between groups).
struct GroupState {
  std::byte* arena = nullptr;
  std::size_t arena_capacity = 0;
  std::size_t arena_used = 0;
  std::vector<LocalAlloc> allocs;
  RuntimeStats* stats = nullptr;
  analyzer::GroupAnalysis* analysis = nullptr;  ///< null = analyzer off
  bool aborting = false;  ///< set when a sibling work-item threw
  bool phased = false;    ///< running a PhasedBody (barrier() is an error)
};

/// Per-work-item scheduling state.
enum class ItemState { kRunnable, kAtBarrier, kDone };

/// Raises LocalSpan's out-of-bounds error. Out of line and by value, so a
/// LocalSpan on the hot path never has to live in memory.
[[noreturn]] void local_out_of_bounds(const char* access, std::size_t i,
                                      std::size_t count);

/// Moves a ctx onto another work-item of its group. Executor-side only:
/// kernel bodies see their own item and cannot re-point the ctx.
struct WorkItemCursor {
  static void move_to(WorkItemCtx& ctx, std::size_t local_id);
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
/// onto ids, synchronisation, and the three OpenCL memory levels.
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

  /// OpenCL barrier(CLK_LOCAL_MEM_FENCE): suspends this work-item until
  /// every work-item of the group has reached the same barrier. Lambda
  /// bodies only: a phased body synchronises by returning from its phase.
  void barrier();

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
    const detail::GroupState& g = *group_;
    const std::size_t index = alloc_cursor_++;
    // Inline: a work-item repeating an allocation the group already made.
    // The first allocation and every failure are out of line. The two
    // returns are deliberate: merging them into one measured ~8% slower
    // per kernel IV.B option with GCC 12 at -O3.
    if (index >= g.allocs.size() || g.allocs[index].bytes != bytes)
        [[unlikely]] {
      const std::size_t offset = allocate_local(index, bytes);
      return LocalSpan<T>(reinterpret_cast<T*>(g.arena + offset), count,
                          *g.stats, g.analysis, local_id_, offset, index);
    }
    const std::size_t offset = g.allocs[index].offset;
    return LocalSpan<T>(reinterpret_cast<T*>(g.arena + offset), count,
                        *g.stats, g.analysis, local_id_, offset, index);
  }

private:
  friend class WorkGroupExecutor;
  friend struct detail::WorkItemCursor;

  /// Makes the group's allocation `index` of `bytes` bytes (the first
  /// work-item to ask) or rejects a divergent size; returns its offset.
  std::size_t allocate_local(std::size_t index, std::size_t bytes);

  std::size_t global_id_ = 0;
  std::size_t local_id_ = 0;
  std::size_t group_id_ = 0;
  std::size_t local_size_ = 0;
  std::size_t global_size_ = 0;
  std::size_t alloc_cursor_ = 0;
  detail::GroupState* group_ = nullptr;
  Fiber* fiber_ = nullptr;
  detail::ItemState state_ = detail::ItemState::kRunnable;
};

namespace detail {

inline void WorkItemCursor::move_to(WorkItemCtx& ctx, std::size_t local_id) {
  ctx.local_id_ = local_id;
  ctx.global_id_ = ctx.group_id_ * ctx.local_size_ + local_id;
  ctx.alloc_cursor_ = 0;
}

}  // namespace detail
}  // namespace binopt::ocl
