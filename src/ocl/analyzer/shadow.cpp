#include "ocl/analyzer/shadow.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "ocl/buffer.h"

namespace binopt::ocl::analyzer {

namespace {

/// "work-item 3 (epoch 2, store)" — one side of a conflict.
std::string describe(std::size_t item, std::size_t epoch, bool is_write) {
  std::ostringstream os;
  os << "work-item " << item << " (epoch " << epoch << ", "
     << (is_write ? "store" : "load") << ")";
  return os.str();
}

}  // namespace

void GroupAnalysis::begin_group(const std::string& kernel_name,
                                std::size_t group_id,
                                std::size_t arena_capacity) {
  kernel_ = kernel_name;
  group_id_ = group_id;
  epoch_ = 0;
  if (local_shadow_.size() < arena_capacity) {
    local_shadow_.resize(arena_capacity);
  }
  // Only the arena range the previous group actually allocated needs
  // resetting; the rest is still in its never-touched default state.
  std::fill_n(local_shadow_.begin(),
              std::min(local_reset_bytes_, local_shadow_.size()), ByteState{});
  local_reset_bytes_ = 0;
  allocs_.clear();
}

void GroupAnalysis::on_local_alloc(std::size_t offset, std::size_t bytes) {
  allocs_.push_back(AllocRecord{offset, bytes});
  local_reset_bytes_ = std::max(local_reset_bytes_, offset + bytes);
}

std::string GroupAnalysis::local_resource_name(std::size_t alloc_index) const {
  std::ostringstream os;
  os << "local[" << alloc_index << "]";
  return os.str();
}

void GroupAnalysis::report_local(HazardKind kind, std::size_t item,
                                 std::size_t alloc_index,
                                 std::size_t offset_in_alloc,
                                 std::size_t bytes, const Mark& prior,
                                 bool prior_is_write, bool current_is_write,
                                 std::string message) {
  Hazard hazard;
  hazard.kind = kind;
  hazard.kernel = kernel_;
  hazard.resource = local_resource_name(alloc_index);
  hazard.group_id = group_id_;
  hazard.byte_offset = offset_in_alloc;
  hazard.bytes = bytes;
  if (prior.item != Mark::kNone) {
    hazard.first.work_item = prior.item;
    hazard.first.epoch = prior.epoch;
    hazard.first.is_write = prior_is_write;
  }
  hazard.second.work_item = item;
  hazard.second.epoch = epoch_;
  hazard.second.is_write = current_is_write;
  hazard.message = std::move(message);
  report_->add(std::move(hazard));
}

bool GroupAnalysis::local_read(std::size_t item, std::size_t alloc_index,
                               std::size_t arena_offset, std::size_t index,
                               std::size_t count, std::size_t elem_bytes) {
  const std::size_t offset = index * elem_bytes;
  if (index >= count) {
    std::ostringstream os;
    os << "work-item " << item << " loads element " << index << " of "
       << local_resource_name(alloc_index) << " (declared size " << count
       << " elements) in group " << group_id_;
    report_local(HazardKind::kLocalOutOfBounds, item, alloc_index, offset,
                 elem_bytes, Mark{}, false, false, os.str());
    return false;
  }

  bool uninit = false;
  bool raced = false;
  for (std::size_t b = 0; b < elem_bytes; ++b) {
    ByteState& state = local_shadow_[arena_offset + offset + b];
    if (state.writer.item == Mark::kNone) {
      if (!uninit) {
        uninit = true;
        std::ostringstream os;
        os << "work-item " << item << " reads element " << index << " of "
           << local_resource_name(alloc_index)
           << " before any work-item wrote it (group " << group_id_
           << ", epoch " << epoch_ << ")";
        report_local(HazardKind::kLocalUninitRead, item, alloc_index, offset,
                     elem_bytes, Mark{}, false, false, os.str());
      }
    } else if (!raced && state.writer.item != item &&
               state.writer.epoch == epoch_) {
      raced = true;
      std::ostringstream os;
      os << describe(item, epoch_, false) << " conflicts with "
         << describe(state.writer.item, state.writer.epoch, true)
         << " on element " << index << " of "
         << local_resource_name(alloc_index) << " with no barrier between "
         << "(group " << group_id_ << ")";
      report_local(HazardKind::kLocalRaceReadWrite, item, alloc_index, offset,
                   elem_bytes, state.writer, true, false, os.str());
    }
    // Remember up to two distinct readers; stale (pre-barrier) marks are
    // recycled first since they can no longer participate in a race.
    const auto u32_item = static_cast<std::uint32_t>(item);
    const auto u32_epoch = static_cast<std::uint32_t>(epoch_);
    if (state.reader1.item == u32_item || state.reader1.item == Mark::kNone ||
        state.reader1.epoch != u32_epoch) {
      state.reader1 = Mark{u32_item, u32_epoch};
    } else if (state.reader1.item != u32_item) {
      state.reader2 = Mark{u32_item, u32_epoch};
    }
  }
  return true;
}

bool GroupAnalysis::local_write(std::size_t item, std::size_t alloc_index,
                                std::size_t arena_offset, std::size_t index,
                                std::size_t count, std::size_t elem_bytes) {
  const std::size_t offset = index * elem_bytes;
  if (index >= count) {
    std::ostringstream os;
    os << "work-item " << item << " stores element " << index << " of "
       << local_resource_name(alloc_index) << " (declared size " << count
       << " elements) in group " << group_id_;
    report_local(HazardKind::kLocalOutOfBounds, item, alloc_index, offset,
                 elem_bytes, Mark{}, false, true, os.str());
    return false;
  }

  bool reported_ww = false;
  bool reported_rw = false;
  for (std::size_t b = 0; b < elem_bytes; ++b) {
    ByteState& state = local_shadow_[arena_offset + offset + b];
    if (!reported_ww && state.writer.item != Mark::kNone &&
        state.writer.item != item && state.writer.epoch == epoch_) {
      reported_ww = true;
      std::ostringstream os;
      os << describe(item, epoch_, true) << " conflicts with "
         << describe(state.writer.item, state.writer.epoch, true)
         << " on element " << index << " of "
         << local_resource_name(alloc_index) << " with no barrier between "
         << "(group " << group_id_ << ")";
      report_local(HazardKind::kLocalRaceWriteWrite, item, alloc_index,
                   offset, elem_bytes, state.writer, true, true, os.str());
    }
    for (const Mark& reader : {state.reader1, state.reader2}) {
      if (reported_rw) break;
      if (reader.item != Mark::kNone && reader.item != item &&
          reader.epoch == epoch_) {
        reported_rw = true;
        std::ostringstream os;
        os << describe(item, epoch_, true) << " conflicts with "
           << describe(reader.item, reader.epoch, false) << " on element "
           << index << " of " << local_resource_name(alloc_index)
           << " with no barrier between (group " << group_id_ << ")";
        report_local(HazardKind::kLocalRaceReadWrite, item, alloc_index,
                     offset, elem_bytes, reader, false, true, os.str());
      }
    }
    state.writer = Mark{static_cast<std::uint32_t>(item),
                        static_cast<std::uint32_t>(epoch_)};
  }
  return true;
}

std::vector<std::uint8_t>& GroupAnalysis::shard_for(Buffer& buffer) {
  std::vector<std::uint8_t>& shard = buffer_shards_[&buffer];
  if (shard.size() < buffer.size_bytes()) shard.resize(buffer.size_bytes(), 0);
  return shard;
}

bool GroupAnalysis::global_read(Buffer& buffer, std::size_t item,
                                std::size_t index, std::size_t count,
                                std::size_t elem_bytes) {
  const std::size_t offset = index * elem_bytes;
  if (index >= count) {
    Hazard hazard;
    hazard.kind = HazardKind::kGlobalOutOfBounds;
    hazard.kernel = kernel_;
    hazard.resource = buffer.name();
    hazard.group_id = group_id_;
    hazard.byte_offset = offset;
    hazard.bytes = elem_bytes;
    hazard.second = AccessSiteInfo{item, epoch_, false};
    std::ostringstream os;
    os << "work-item " << item << " of group " << group_id_
       << " loads element " << index << " of buffer '" << buffer.name()
       << "' (" << count << " elements)";
    hazard.message = os.str();
    report_->add(std::move(hazard));
    return false;
  }
  if (BufferShadow* shadow = buffer.shadow()) {
    const std::vector<std::uint8_t>& shard = shard_for(buffer);
    bool written = true;
    for (std::size_t b = 0; b < elem_bytes; ++b) {
      if (shard[offset + b] == 0 && !shadow->is_written(offset + b, 1)) {
        written = false;
        break;
      }
    }
    if (!written) {
      Hazard hazard;
      hazard.kind = HazardKind::kGlobalUninitRead;
      hazard.kernel = kernel_;
      hazard.resource = buffer.name();
      hazard.group_id = group_id_;
      hazard.byte_offset = offset;
      hazard.bytes = elem_bytes;
      hazard.second = AccessSiteInfo{item, epoch_, false};
      std::ostringstream os;
      os << "work-item " << item << " of group " << group_id_
         << " reads element " << index << " of buffer '" << buffer.name()
         << "' which neither the host nor any kernel has written";
      hazard.message = os.str();
      report_->add(std::move(hazard));
    }
  }
  return true;
}

bool GroupAnalysis::global_write(Buffer& buffer, std::size_t item,
                                 std::size_t index, std::size_t count,
                                 std::size_t elem_bytes) {
  const std::size_t offset = index * elem_bytes;
  if (index >= count) {
    Hazard hazard;
    hazard.kind = HazardKind::kGlobalOutOfBounds;
    hazard.kernel = kernel_;
    hazard.resource = buffer.name();
    hazard.group_id = group_id_;
    hazard.byte_offset = offset;
    hazard.bytes = elem_bytes;
    hazard.second = AccessSiteInfo{item, epoch_, true};
    std::ostringstream os;
    os << "work-item " << item << " of group " << group_id_
       << " stores element " << index << " of buffer '" << buffer.name()
       << "' (" << count << " elements)";
    hazard.message = os.str();
    report_->add(std::move(hazard));
    return false;
  }
  if (buffer.shadow() != nullptr) {
    std::vector<std::uint8_t>& shard = shard_for(buffer);
    std::fill_n(shard.begin() + static_cast<std::ptrdiff_t>(offset),
                elem_bytes, std::uint8_t{1});
  }
  return true;
}

void GroupAnalysis::flush_buffers() {
  for (auto& [buffer, shard] : buffer_shards_) {
    BufferShadow* shadow = buffer->shadow();
    if (shadow == nullptr) continue;
    for (std::size_t i = 0; i < shard.size(); ++i) {
      if (shard[i] != 0) shadow->mark_written(i, 1);
    }
  }
  buffer_shards_.clear();
}

}  // namespace binopt::ocl::analyzer
