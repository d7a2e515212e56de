// Shadow-memory state behind the kernel hazard analyzer.
//
// Two levels, mirroring the simulator's memory model:
//
//  - BufferShadow: one "was this byte ever written" bit-set per global
//    Buffer. The host marks bytes on enqueue_write; kernel stores land in
//    per-compute-unit shards (GroupAnalysis) that are merged into the base
//    set after the NDRange completes — the same shard-then-merge scheme
//    RuntimeStats uses, so CU workers never contend on shared state.
//
//  - GroupAnalysis: per-executor (= per compute unit) dynamic checker. For
//    every byte of the local-memory arena it records the last writer and
//    the last two distinct readers as (work-item, barrier epoch) pairs.
//    The barrier epoch is bumped each time the whole group crosses a
//    barrier; two conflicting accesses to the same byte by different
//    work-items *within one epoch* have no barrier between them and are
//    exactly OpenCL's intra-group data race. Out-of-bounds and
//    never-written-byte reads are flagged from the same interposition
//    points. (Two reader slots suffice: a byte of the paper's kernel IV.B
//    row has at most two concurrent readers, items k and k+1.)
//
// GroupAnalysis is owned by a WorkGroupExecutor and touched only by that
// executor's thread while a range runs; flush_buffers() is called on the
// enqueuing thread after the workers quiesce. Hazards go to the shared,
// mutex-guarded HazardReport.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ocl/analyzer/hazard.h"

namespace binopt::ocl {
class Buffer;  // ocl/buffer.h includes this header; bodies live in the .cpp
}  // namespace binopt::ocl

namespace binopt::ocl::analyzer {

/// Host-visible written-byte set of one global Buffer (the merge target of
/// the per-CU shards). Created per buffer when the analyzer is enabled.
class BufferShadow {
public:
  explicit BufferShadow(std::size_t bytes) : written_(bytes, 0) {}

  void mark_written(std::size_t offset, std::size_t bytes) {
    for (std::size_t i = 0; i < bytes; ++i) written_[offset + i] = 1;
  }

  /// True when every byte of [offset, offset+bytes) has been written.
  [[nodiscard]] bool is_written(std::size_t offset, std::size_t bytes) const {
    for (std::size_t i = 0; i < bytes; ++i) {
      if (written_[offset + i] == 0) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t size() const { return written_.size(); }

private:
  std::vector<std::uint8_t> written_;
};

/// Per-compute-unit dynamic hazard checker.
class GroupAnalysis {
public:
  GroupAnalysis(HazardReport& report, const AnalyzerConfig& config)
      : report_(&report), config_(config) {}

  // -- lifecycle driven by the executor ------------------------------------

  /// Arms the checker for one work-group: resets the local shadow (the
  /// arena is reused between groups, so its bytes become "uninitialised"
  /// again) and restarts the barrier epoch at zero.
  void begin_group(const std::string& kernel_name, std::size_t group_id,
                   std::size_t arena_capacity);

  /// Registers local allocation #index at [offset, offset+bytes) — gives
  /// hazards their "local[<index>]" resource name.
  void on_local_alloc(std::size_t offset, std::size_t bytes);

  /// The whole group crossed a barrier: accesses recorded after this call
  /// are ordered against everything before it.
  void advance_epoch() { ++epoch_; }

  [[nodiscard]] std::size_t epoch() const { return epoch_; }

  // -- access hooks called by LocalSpan / GlobalSpan -----------------------
  // Each returns true when the access may proceed; false means the access
  // is out of bounds and must be suppressed (reads yield T{}, writes are
  // dropped) so the kernel can keep running and surface further hazards.

  bool local_read(std::size_t item, std::size_t alloc_index,
                  std::size_t arena_offset, std::size_t index,
                  std::size_t count, std::size_t elem_bytes);
  bool local_write(std::size_t item, std::size_t alloc_index,
                   std::size_t arena_offset, std::size_t index,
                   std::size_t count, std::size_t elem_bytes);
  bool global_read(Buffer& buffer, std::size_t item, std::size_t index,
                   std::size_t count, std::size_t elem_bytes);
  bool global_write(Buffer& buffer, std::size_t item, std::size_t index,
                    std::size_t count, std::size_t elem_bytes);

  // -- merge ---------------------------------------------------------------

  /// Folds this unit's written-byte shards into the buffers' base shadows
  /// and clears them. Enqueuing thread only, after the range completes
  /// (bit-wise OR — merge order cannot matter).
  void flush_buffers();

  [[nodiscard]] HazardReport& report() { return *report_; }

private:
  /// (work-item, epoch) of one remembered access; item == kNone -> empty.
  struct Mark {
    std::uint32_t item = kNone;
    std::uint32_t epoch = 0;
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  };

  /// Shadow entry for one byte of the local arena.
  struct ByteState {
    Mark writer;
    Mark reader1;  ///< first distinct reader of the current epoch
    Mark reader2;  ///< most recent other reader
  };

  void report_local(HazardKind kind, std::size_t item, std::size_t alloc_index,
                    std::size_t offset_in_alloc, std::size_t bytes,
                    const Mark& prior, bool prior_is_write,
                    bool current_is_write, std::string message);
  std::vector<std::uint8_t>& shard_for(Buffer& buffer);
  [[nodiscard]] std::string local_resource_name(
      std::size_t alloc_index) const;

  HazardReport* report_;
  AnalyzerConfig config_;

  std::string kernel_;
  std::size_t group_id_ = 0;
  std::size_t epoch_ = 0;

  std::vector<ByteState> local_shadow_;  ///< indexed by arena byte offset
  std::size_t local_reset_bytes_ = 0;    ///< arena high-water mark to reset
  struct AllocRecord {
    std::size_t offset = 0;
    std::size_t bytes = 0;
  };
  std::vector<AllocRecord> allocs_;

  /// Written-byte shards, one per buffer this unit stored to or loaded
  /// from, merged into BufferShadow at flush_buffers().
  std::unordered_map<Buffer*, std::vector<std::uint8_t>> buffer_shards_;
};

}  // namespace binopt::ocl::analyzer
