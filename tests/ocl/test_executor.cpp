// Execution-model tests: NDRange ids, barrier semantics (the property the
// whole kernel IV.B reproduction rests on) through barrier-phased kernels,
// local memory discipline, and error propagation.
#include "ocl/workgroup_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "ocl/buffer.h"

namespace binopt::ocl {
namespace {

// Private state for phased kernels that carry nothing across barriers.
struct NoState {};

class ExecutorTest : public ::testing::Test {
protected:
  WorkGroupExecutor executor_{/*local_mem_bytes=*/16 * 1024,
                              /*max_workgroup_size=*/256};
  RuntimeStats stats_;
};

TEST_F(ExecutorTest, IdsAreConsistent) {
  std::vector<int> seen(24, 0);
  Kernel kernel;
  kernel.name = "ids";
  kernel.body = [&](WorkItemCtx& ctx, const KernelArgs&) {
    EXPECT_EQ(ctx.global_id(), ctx.group_id() * ctx.local_size() + ctx.local_id());
    EXPECT_EQ(ctx.local_size(), 8u);
    EXPECT_EQ(ctx.global_size(), 24u);
    EXPECT_EQ(ctx.num_groups(), 3u);
    ++seen[ctx.global_id()];
  };
  KernelArgs args;
  executor_.execute(kernel, args, NDRange{24, 8}, stats_);
  for (int count : seen) EXPECT_EQ(count, 1);
  EXPECT_EQ(stats_.work_items_executed, 24u);
  EXPECT_EQ(stats_.work_groups_executed, 3u);
  EXPECT_EQ(stats_.kernels_enqueued, 1u);
}

TEST_F(ExecutorTest, BarrierMakesLocalWritesVisible) {
  // Work-item i writes slot i, then after a barrier reads neighbour i+1.
  // Without real barrier semantics the read would see stale data.
  std::vector<double> observed(16, -1.0);
  const Kernel kernel = make_phased_kernel<NoState>(
      "neighbour_exchange", 2,
      [&](WorkItemCtx& ctx, const KernelArgs&, std::size_t phase, NoState&) {
        auto row = ctx.local_array<double>(ctx.local_size());
        if (phase == 0) {
          row.set(ctx.local_id(), static_cast<double>(ctx.local_id()) * 10.0);
          return;
        }
        const std::size_t next = (ctx.local_id() + 1) % ctx.local_size();
        observed[ctx.global_id()] = row.get(next);
      });
  KernelArgs args;
  executor_.execute(kernel, args, NDRange{16, 16}, stats_);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(observed[i], static_cast<double>((i + 1) % 16) * 10.0);
  }
  EXPECT_EQ(stats_.barriers_executed, 16u);
}

TEST_F(ExecutorTest, MultiPhaseBarrierPipeline) {
  // Parallel reduction across 3 barrier phases — each phase must observe
  // the previous phase's local stores from every work-item.
  // Phase 0 fills, phases 1..3 halve the stride (4, 2, 1), phase 4 reads.
  double result = 0.0;
  constexpr std::size_t kStrides = 3;  // log2 of the 8-item group
  const Kernel kernel = make_phased_kernel<NoState>(
      "reduction", kStrides + 2,
      [&](WorkItemCtx& ctx, const KernelArgs&, std::size_t phase, NoState&) {
        const std::size_t n = ctx.local_size();
        auto scratch = ctx.local_array<double>(n);
        if (phase == 0) {
          scratch.set(ctx.local_id(), static_cast<double>(ctx.local_id() + 1));
        } else if (phase <= kStrides) {
          const std::size_t stride = n >> phase;
          if (ctx.local_id() < stride) {
            scratch.set(ctx.local_id(),
                        scratch.get(ctx.local_id()) +
                            scratch.get(ctx.local_id() + stride));
          }
        } else if (ctx.local_id() == 0) {
          result = scratch.get(0);
        }
      });
  KernelArgs args;
  executor_.execute(kernel, args, NDRange{8, 8}, stats_);
  EXPECT_DOUBLE_EQ(result, 36.0);  // 1+...+8
}

TEST_F(ExecutorTest, LocalAllocationSharedAcrossGroup) {
  std::vector<double> sums(2, 0.0);
  const Kernel kernel = make_phased_kernel<NoState>(
      "shared_alloc", 2,
      [&](WorkItemCtx& ctx, const KernelArgs&, std::size_t phase, NoState&) {
        auto a = ctx.local_array<double>(4);
        if (phase == 0) {
          a.set(ctx.local_id(), 1.0);
        } else if (ctx.local_id() == 0) {
          double sum = 0.0;
          for (std::size_t i = 0; i < 4; ++i) sum += a.get(i);
          sums[ctx.group_id()] = sum;
        }
      });
  KernelArgs args;
  executor_.execute(kernel, args, NDRange{8, 4}, stats_);
  EXPECT_DOUBLE_EQ(sums[0], 4.0);
  EXPECT_DOUBLE_EQ(sums[1], 4.0);
}

TEST_F(ExecutorTest, DivergentLocalAllocationSizeThrows) {
  const Kernel kernel = make_phased_kernel<NoState>(
      "divergent_alloc", 2,
      [](WorkItemCtx& ctx, const KernelArgs&, std::size_t, NoState&) {
        // Different sizes per work-item: illegal static local allocation.
        auto a = ctx.local_array<double>(ctx.local_id() + 1);
        (void)a;
      });
  KernelArgs args;
  EXPECT_THROW(executor_.execute(kernel, args, NDRange{4, 4}, stats_),
               PreconditionError);
}

TEST_F(ExecutorTest, LocalMemoryExhaustionThrows) {
  Kernel kernel;
  kernel.name = "oom";
  kernel.body = [&](WorkItemCtx& ctx, const KernelArgs&) {
    auto a = ctx.local_array<double>(16 * 1024);  // 128 KiB > 16 KiB arena
    (void)a;
  };
  KernelArgs args;
  EXPECT_THROW(executor_.execute(kernel, args, NDRange{1, 1}, stats_),
               PreconditionError);
}

TEST_F(ExecutorTest, FastPathRunsBarrierFreeKernels) {
  Kernel kernel;
  kernel.name = "fast";
  std::size_t count = 0;
  kernel.body = [&](WorkItemCtx&, const KernelArgs&) { ++count; };
  KernelArgs args;
  executor_.execute(kernel, args, NDRange{64, 16}, stats_);
  EXPECT_EQ(count, 64u);
  EXPECT_EQ(stats_.work_items_executed, 64u);
}

TEST_F(ExecutorTest, ValidatesNDRange) {
  Kernel kernel;
  kernel.name = "k";
  kernel.body = [](WorkItemCtx&, const KernelArgs&) {};
  KernelArgs args;
  EXPECT_THROW(executor_.execute(kernel, args, NDRange{10, 3}, stats_),
               PreconditionError);  // local does not divide global
  EXPECT_THROW(executor_.execute(kernel, args, NDRange{512, 512}, stats_),
               PreconditionError);  // exceeds max work-group size
  EXPECT_THROW(executor_.execute(kernel, args, NDRange{0, 1}, stats_),
               PreconditionError);  // empty
}

TEST_F(ExecutorTest, KernelExceptionsPropagate) {
  const Kernel kernel = make_phased_kernel<NoState>(
      "thrower", 2,
      [](WorkItemCtx& ctx, const KernelArgs&, std::size_t phase, NoState&) {
        if (phase == 0 && ctx.global_id() == 3) {
          throw PreconditionError("kernel bug");
        }
      });
  KernelArgs args;
  EXPECT_THROW(executor_.execute(kernel, args, NDRange{8, 8}, stats_),
               PreconditionError);
}

TEST_F(ExecutorTest, GlobalAccessorsCountTraffic) {
  Buffer buffer(8 * sizeof(double), MemFlags::kReadWrite, "buf");
  Kernel kernel;
  kernel.name = "traffic";
  kernel.body = [&](WorkItemCtx& ctx, const KernelArgs&) {
    auto view = ctx.global<double>(buffer);
    view.set(ctx.global_id(), 1.5);
    (void)view.get(ctx.global_id());
  };
  KernelArgs args;
  executor_.execute(kernel, args, NDRange{8, 8}, stats_);
  EXPECT_EQ(stats_.global_store_bytes, 8u * sizeof(double));
  EXPECT_EQ(stats_.global_load_bytes, 8u * sizeof(double));
}

}  // namespace
}  // namespace binopt::ocl
