// Zero-allocation gate for the service hot path (DESIGN.md §2.6).
//
// This binary replaces the global allocation operators with counting
// versions and asserts that, after warmup, a price_batch_blocking call
// performs NO heap allocation end to end, with or without the fleet
// router: admission (arena slot + ring push), batching (reused worker
// scratch), pricing (BatchPricer's reused lanes), and resolution (stack
// SyncGroup). It is a
// separate test binary so the hooks cannot perturb the other suites or
// the ThreadSanitizer job.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "core/accelerator.h"
#include "core/service/pricing_service.h"
#include "finance/binomial_batch.h"
#include "finance/workload.h"
#include "kernels/kernel_b.h"
#include "ocl/context.h"
#include "ocl/workgroup_executor.h"

namespace {
// Counts every path into the heap. Relaxed is fine: the test reads the
// counter only after joining/quiescing the threads whose allocations it
// wants to observe (the blocking call returns only after the worker has
// resolved every element).
std::atomic<std::uint64_t> g_heap_allocations{0};

void* counted_alloc(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded ? rounded : align);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace binopt::core {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kSteps = 64;
constexpr std::size_t kBatch = 64;

ServiceConfig hotpath_config(bool routed = false) {
  ServiceConfig config;
  config.targets = {Target::kCpuReference};
  config.steps = kSteps;
  config.max_batch = kBatch;
  config.linger = 0us;
  config.queue_capacity = 256;
  config.cache_capacity = 0;  // cache insertions allocate by design
  if (routed) config.router.policy = service::RouterPolicy::kLatency;
  return config;
}

TEST(AllocHotPath, SteadyStateBlockingBatchMakesZeroHeapAllocations) {
  const auto specs = finance::make_curve_batch(kBatch);
  PricingAccelerator direct({Target::kCpuReference, kSteps,
                             /*compute_rmse=*/false});
  const std::vector<double> expected = direct.run(specs).prices;

  PricingService service(hotpath_config());
  std::vector<double> out(specs.size(), 0.0);

  // Warmup: lazily builds the worker's BatchPricer, reserves all scratch,
  // and carves every arena slab the steady-state lease pattern touches.
  for (int i = 0; i < 200; ++i) {
    service.price_batch_blocking(specs.data(), specs.size(), out.data());
  }

  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  constexpr int kMeasuredReps = 100;
  for (int i = 0; i < kMeasuredReps; ++i) {
    service.price_batch_blocking(specs.data(), specs.size(), out.data());
  }
  const std::uint64_t after =
      g_heap_allocations.load(std::memory_order_relaxed);

  // The acceptance gate: zero allocations per request in steady state —
  // submit -> ring -> batch -> price -> resolve never touches the heap.
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations across " << kMeasuredReps
      << " blocking batches of " << specs.size();

  // And the zero-alloc path still prices correctly (bitwise).
  ASSERT_EQ(out, expected);
}

TEST(AllocHotPath, RoutedSteadyStateBlockingBatchMakesZeroHeapAllocations) {
  // The routed path places each chunk on a worker's own ring: the router
  // pick, the backlog accounting, and the model-vs-measured feedback must
  // all stay off the heap too.
  const auto specs = finance::make_curve_batch(kBatch);
  PricingAccelerator direct({Target::kCpuReference, kSteps,
                             /*compute_rmse=*/false});
  const std::vector<double> expected = direct.run(specs).prices;

  PricingService service(hotpath_config(/*routed=*/true));
  std::vector<double> out(specs.size(), 0.0);
  for (int i = 0; i < 200; ++i) {
    service.price_batch_blocking(specs.data(), specs.size(), out.data());
  }

  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  constexpr int kMeasuredReps = 100;
  for (int i = 0; i < kMeasuredReps; ++i) {
    service.price_batch_blocking(specs.data(), specs.size(), out.data());
  }
  const std::uint64_t after =
      g_heap_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations across " << kMeasuredReps
      << " routed blocking batches of " << specs.size();
  ASSERT_EQ(out, expected);
  EXPECT_EQ(service.stats().requests_routed,
            (200u + kMeasuredReps) * specs.size());
}

TEST(AllocHotPath, BlockingBatchMatchesFutureApisOnBothSpines) {
  const auto specs = finance::make_curve_batch(48);
  PricingAccelerator direct({Target::kCpuReference, kSteps,
                             /*compute_rmse=*/false});
  const std::vector<double> expected = direct.run(specs).prices;

  // Both ring layouts: one shared ring, and one ring per routed worker.
  for (const bool routed : {false, true}) {
    PricingService service(hotpath_config(routed));
    std::vector<double> blocking(specs.size(), 0.0);
    service.price_batch_blocking(specs.data(), specs.size(), blocking.data());
    EXPECT_EQ(blocking, expected);

    const std::vector<double> via_future = service.submit_batch(specs).get();
    EXPECT_EQ(via_future, expected);

    const Quote quote = service.submit(specs.front()).get();
    EXPECT_EQ(quote.price, expected.front());
  }
}

TEST(AllocHotPath, ArmedOverloadLayerUnderTheWatermarkStaysZeroAlloc) {
  // Arming shedding + the sojourn controller must not cost the fast path
  // its zero-allocation guarantee: under the watermark every admission
  // adds only an atomic occupancy read, and every collection only the
  // controller's atomic bookkeeping (DESIGN.md §2.10). Sheds, drops, and
  // brownout never fire here — this is the 99% regime of an armed
  // service, and it must price exactly like the disarmed one.
  const auto specs = finance::make_curve_batch(kBatch);
  PricingAccelerator direct({Target::kCpuReference, kSteps,
                             /*compute_rmse=*/false});
  const std::vector<double> expected = direct.run(specs).prices;

  ServiceConfig config = hotpath_config();
  config.overload.shed_watermark = 0.9;    // 230 of 256: never reached
  config.overload.sojourn_target = 50ms;   // never exceeded either
  PricingService service(std::move(config));
  std::vector<double> out(specs.size(), 0.0);

  for (int i = 0; i < 200; ++i) {
    service.price_batch_blocking(specs.data(), specs.size(), out.data());
  }

  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  constexpr int kMeasuredReps = 100;
  for (int i = 0; i < kMeasuredReps; ++i) {
    service.price_batch_blocking(specs.data(), specs.size(), out.data());
  }
  const std::uint64_t after =
      g_heap_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations across " << kMeasuredReps
      << " blocking batches with the overload layer armed";
  ASSERT_EQ(out, expected);  // armed != different prices

  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_shed_normal, 0u);
  EXPECT_EQ(stats.requests_shed_batch, 0u);
  EXPECT_EQ(stats.eager_deadline_drops, 0u);
  EXPECT_EQ(stats.brownout_completions, 0u);
}

TEST(AllocHotPath, StatsStillTrackZeroAllocTraffic) {
  // kSync requests must feed the same counters/histograms as the
  // promise-based sinks — observability cannot be the price of zero-alloc.
  const auto specs = finance::make_curve_batch(32);
  PricingService service(hotpath_config());
  std::vector<double> out(specs.size(), 0.0);
  service.price_batch_blocking(specs.data(), specs.size(), out.data());

  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_submitted, specs.size());
  EXPECT_EQ(stats.requests_completed, specs.size());
  EXPECT_EQ(stats.requests_failed, 0u);
  EXPECT_EQ(stats.options_priced, specs.size());
  EXPECT_EQ(stats.request_latency_ns.count(), specs.size());
  EXPECT_EQ(stats.queue_wait_ns.count(), specs.size());
  EXPECT_GE(stats.batches_launched, 1u);
}

TEST(AllocHotPath, BatchPricerPaddedTailMakesZeroHeapAllocations) {
  // A 3-option batch is one padded 4-lane sweep when SIMD is on; the pad
  // specs and their results live on the stack, so a warmed pricer still
  // never touches the heap (the scalar fallback reuses its scratch too).
  const auto specs = finance::make_curve_batch(3);
  finance::BatchPricer pricer(kSteps);
  double out[3] = {};
  pricer.price_into(specs.data(), specs.size(), out);  // warm-up

  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  constexpr int kMeasuredReps = 100;
  for (int i = 0; i < kMeasuredReps; ++i) {
    pricer.price_into(specs.data(), specs.size(), out);
  }
  const std::uint64_t after =
      g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations across " << kMeasuredReps
      << " 3-option batches (simd "
      << (finance::BatchPricer::simd_enabled() ? "on" : "off") << ")";
}

TEST(AllocHotPath, PhasedKernelGroupsMakeZeroHeapAllocations) {
  // Kernel IV.B runs as a barrier-phased kernel: after the first group has
  // sized the executor's local-allocation log and private-state arena,
  // every further work-group runs without touching the heap.
  constexpr std::size_t kTreeSteps = 32;
  constexpr std::size_t kGroups = 16;
  ocl::Device device("alloc-test", ocl::DeviceKind::kFpga,
                     ocl::DeviceLimits{16u << 20, 16u << 10, 64, 1});
  ocl::Context context(device);
  // Contents do not affect allocation; all-ones keeps the arithmetic
  // finite (S0 = u = d = K = 1).
  ocl::Buffer& params = context.create_buffer_of<double>(
      kGroups * 8, ocl::MemFlags::kReadOnly, "params");
  const std::vector<double> ones(kGroups * 8, 1.0);
  params.write(0, std::as_bytes(std::span<const double>(ones)));
  ocl::Buffer& results = context.create_buffer_of<double>(
      kGroups, ocl::MemFlags::kWriteOnly, "results");
  ocl::KernelArgs args;
  args.set(0, &params);
  args.set(1, &results);
  const ocl::NDRange range{kGroups * kTreeSteps, kTreeSteps};

  const ocl::Kernel phased =
      kernels::make_kernel_b(kTreeSteps, kernels::MathMode::kFpgaApproxPow);
  ocl::WorkGroupExecutor executor(device.limits().local_mem_bytes,
                                  device.limits().max_workgroup_size);
  ocl::RuntimeStats stats;
  executor.execute_group(phased, args, range, 0, stats);  // warm-up

  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  for (std::size_t g = 0; g < kGroups; ++g) {
    executor.execute_group(phased, args, range, g, stats);
  }
  const std::uint64_t after =
      g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations across " << kGroups
      << " phased kernel-B work-groups";
  EXPECT_EQ(stats.barriers_executed,
            (kGroups + 1) * kTreeSteps * (2 * kTreeSteps + 1));

  // Control: the hooks do see executor allocations — a fresh executor's
  // first group grows its local arena, allocation log and state arena.
  ocl::WorkGroupExecutor fresh(device.limits().local_mem_bytes,
                               device.limits().max_workgroup_size);
  const std::uint64_t fresh_before =
      g_heap_allocations.load(std::memory_order_relaxed);
  fresh.execute_group(phased, args, range, 0, stats);
  EXPECT_GT(g_heap_allocations.load(std::memory_order_relaxed),
            fresh_before);
}

}  // namespace
}  // namespace binopt::core
