#include "ocl/workgroup_executor.h"

namespace binopt::ocl {

void detail::local_out_of_bounds(const char* access, std::size_t i,
                                 std::size_t count) {
  ::binopt::detail::raise<PreconditionError>("i < count", __FILE__, __LINE__,
                                             "local ", access,
                                             " out of bounds: ", i, " >= ",
                                             count);
}

std::size_t detail::allocate_local(GroupState& g, std::size_t index,
                                   std::size_t bytes, std::size_t work_item) {
  if (index < g.allocs.size()) {
    const LocalAlloc& a = g.allocs[index];
    BINOPT_REQUIRE(a.bytes == bytes, "divergent local allocation: work-item ",
                   work_item, " requested ", bytes,
                   " bytes, group allocated ", a.bytes);
    return a.offset;
  }
  constexpr std::size_t kAlign = 16;
  const std::size_t offset = (g.arena_used + kAlign - 1) / kAlign * kAlign;
  BINOPT_REQUIRE(offset + bytes <= g.arena_capacity,
                 "local memory exhausted: need ", offset + bytes,
                 " bytes, device local size is ", g.arena_capacity);
  g.allocs.push_back(LocalAlloc{offset, bytes});
  g.arena_used = offset + bytes;
  if (g.analysis != nullptr) g.analysis->on_local_alloc(offset, bytes);
  return offset;
}

WorkGroupExecutor::WorkGroupExecutor(std::size_t local_mem_bytes,
                                     std::size_t max_workgroup_size)
    : local_mem_bytes_(local_mem_bytes),
      max_workgroup_size_(max_workgroup_size) {
  BINOPT_REQUIRE(max_workgroup_size_ >= 1, "device must allow work-groups");
}

void WorkGroupExecutor::validate(const Kernel& kernel, const KernelArgs& args,
                                 NDRange range) const {
  kernel.validate_form();
  BINOPT_REQUIRE(range.global_size >= 1, "empty NDRange");
  BINOPT_REQUIRE(range.local_size >= 1, "work-group size must be >= 1");
  BINOPT_REQUIRE(range.local_size <= max_workgroup_size_,
                 "work-group size ", range.local_size,
                 " exceeds device maximum ", max_workgroup_size_);
  BINOPT_REQUIRE(range.global_size % range.local_size == 0,
                 "global size ", range.global_size,
                 " is not a multiple of local size ", range.local_size);
  args.validate_complete();
}

void WorkGroupExecutor::execute(const Kernel& kernel, const KernelArgs& args,
                                NDRange range, RuntimeStats& stats) {
  validate(kernel, args, range);
  const std::size_t num_groups = range.num_groups();
  ++stats.kernels_enqueued;
  for (std::size_t g = 0; g < num_groups; ++g) {
    run_group(kernel, args, range, g, stats);
  }
}

void WorkGroupExecutor::execute_group(const Kernel& kernel,
                                      const KernelArgs& args, NDRange range,
                                      std::size_t group_id,
                                      RuntimeStats& stats) {
  run_group(kernel, args, range, group_id, stats);
}

void WorkGroupExecutor::enable_analysis(
    analyzer::HazardReport& report, const analyzer::AnalyzerConfig& config) {
  analysis_ = std::make_unique<analyzer::GroupAnalysis>(report, config);
}

void WorkGroupExecutor::flush_analysis() {
  if (analysis_ != nullptr) analysis_->flush_buffers();
}

void WorkGroupExecutor::run_group(const Kernel& kernel, const KernelArgs& args,
                                  NDRange range, std::size_t group_id,
                                  RuntimeStats& stats) {
  const std::size_t n = range.local_size;

  if (arena_.size() < local_mem_bytes_) arena_.resize(local_mem_bytes_);
  group_.arena = arena_.data();
  group_.arena_capacity = local_mem_bytes_;
  group_.arena_used = 0;
  group_.allocs.clear();
  group_.stats = &stats;
  group_.analysis = nullptr;
  if (analysis_ != nullptr) {
    analysis_->begin_group(kernel.name, group_id, local_mem_bytes_);
    group_.analysis = analysis_.get();
  }

  WorkItemCtx ctx;
  ctx.group_id_ = group_id;
  ctx.local_size_ = n;
  ctx.global_size_ = range.global_size;
  ctx.local_counts_ = &stats;
  ctx.analysis_ = group_.analysis;
  ctx.group_ = &group_;

  if (kernel.phased) {
    run_phased_group(*kernel.phased, args, ctx);
  } else {
    // A lambda body cannot synchronise, so each work-item runs to
    // completion as a plain call.
    for (std::size_t i = 0; i < n; ++i) {
      detail::WorkItemCursor::move_to(ctx, i);
      kernel.body(ctx, args);
    }
  }
  ++stats.work_groups_executed;
  stats.work_items_executed += n;
}

void WorkGroupExecutor::run_phased_group(const PhasedBody& phased,
                                         const KernelArgs& args,
                                         const WorkItemCtx& ctx) {
  const std::size_t n = ctx.local_size_;
  // sizeof(State) is a multiple of alignof(State) <= alignof(max_align_t),
  // so back-to-back states in a max_align_t array are all aligned.
  const std::size_t stride = phased.state_bytes;
  const std::size_t words =
      (n * stride + sizeof(std::max_align_t) - 1) / sizeof(std::max_align_t);
  if (state_arena_.size() < words) state_arena_.resize(words);
  auto* states = reinterpret_cast<std::byte*>(state_arena_.data());
  for (std::size_t i = 0; i < n; ++i) phased.init_state(states + i * stride);

  // One pass per barrier region, work-items in local-id order. The item
  // loop itself is compiled with the body, once per policy.
  const PhasedBody::Runner& run_phase = phased.runner(
      analysis_ != nullptr ? AccessPolicy::kArmed : AccessPolicy::kOff);
  for (std::size_t phase = 0; phase < phased.phases; ++phase) {
    if (phase > 0) {
      // The whole group crossed the barrier between the previous phase
      // and this one.
      group_.stats->barriers_executed += n;
      if (analysis_ != nullptr) analysis_->advance_epoch();
    }
    run_phase(ctx, args, phase, states);
  }
}

}  // namespace binopt::ocl
