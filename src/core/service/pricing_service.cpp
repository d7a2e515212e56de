#include "core/service/pricing_service.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <sstream>
#include <utility>

#include "common/statistics.h"
#include "ocl/faults/fault_plan.h"

namespace binopt::core {

using service::CacheKey;
using service::ServiceStats;

namespace {

/// steady_clock time_point -> the tracer/histogram nanosecond timebase
/// (trace::monotonic_ns() reads the same clock).
std::uint64_t to_ns(std::chrono::steady_clock::time_point tp) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return to > from ? to_ns(to) - to_ns(from) : 0;
}

/// Safety-net nap bounds for the EventGate waits: wakeups are normally
/// delivered by notify(), these only cap how long a (theoretically) lost
/// one can delay progress.
constexpr std::chrono::milliseconds kIdleNap{2};
constexpr std::chrono::milliseconds kBackpressureNap{1};

/// RAII registration of a submitter inside admission; the destructor
/// spins on this count so no push can land after teardown.
class AdmissionScope {
public:
  explicit AdmissionScope(std::atomic<std::size_t>& counter)
      : counter_(counter) {
    counter_.fetch_add(1, std::memory_order_acq_rel);
  }
  ~AdmissionScope() { counter_.fetch_sub(1, std::memory_order_acq_rel); }
  AdmissionScope(const AdmissionScope&) = delete;
  AdmissionScope& operator=(const AdmissionScope&) = delete;

private:
  std::atomic<std::size_t>& counter_;
};

/// Reduced-fidelity sibling used by brownout: the single-precision
/// variant where the paper implements one, otherwise the same target
/// (the step reduction alone is then the fidelity cut).
Target brownout_target_for(Target target) {
  switch (target) {
    case Target::kCpuReference: return Target::kCpuReferenceSingle;
    case Target::kGpuKernelB: return Target::kGpuKernelBSingle;
    default: return target;
  }
}

/// Fixed calibration grid for the brownout accuracy bound: moneyness x
/// volatility x maturity, call/put alternating — small enough to run once
/// per worker, wide enough that the RMSE is not a single-point fluke.
std::vector<finance::OptionSpec> brownout_calibration_specs() {
  std::vector<finance::OptionSpec> specs;
  const double spots[] = {80.0, 100.0, 120.0};
  const double vols[] = {0.15, 0.35};
  const double maturities[] = {0.5, 2.0};
  bool call = true;
  for (const double spot : spots) {
    for (const double vol : vols) {
      for (const double maturity : maturities) {
        finance::OptionSpec spec;
        spec.spot = spot;
        spec.strike = 100.0;
        spec.rate = 0.03;
        spec.dividend = 0.01;
        spec.volatility = vol;
        spec.maturity = maturity;
        spec.type =
            call ? finance::OptionType::kCall : finance::OptionType::kPut;
        call = !call;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

ServiceOverloadError make_shed_error(Priority priority, std::size_t occupancy,
                                     std::size_t threshold) {
  std::ostringstream os;
  os << "pricing service shed " << to_string(priority)
     << "-priority request at admission: queue occupancy " << occupancy
     << " >= " << to_string(priority) << " shed threshold " << threshold;
  return ServiceOverloadError(priority, occupancy, threshold, os.str());
}

}  // namespace

PricingService::PricingService(ServiceConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_capacity, config_.cache_shards) {
  BINOPT_REQUIRE(!config_.targets.empty(),
                 "service needs at least one Target backend");
  BINOPT_REQUIRE(config_.max_batch >= 1, "max_batch must be >= 1");
  BINOPT_REQUIRE(config_.queue_capacity >= 1, "queue_capacity must be >= 1");
  BINOPT_REQUIRE(config_.steps >= 2, "need at least two tree steps");
  config_.retry.validate();
  config_.health.validate();
  BINOPT_REQUIRE(config_.worker_fault_plans.empty() ||
                     config_.worker_fault_plans.size() ==
                         config_.targets.size(),
                 "worker_fault_plans must be empty or carry exactly one "
                 "plan per target (got ", config_.worker_fault_plans.size(),
                 " plans for ", config_.targets.size(), " targets)");

  // Routing: an explicit policy wins; kOff consults BINOPT_SERVICE_ROUTER
  // so deployments can turn the fleet router on without a code change.
  config_.router.validate();
  if (config_.router.policy == service::RouterPolicy::kOff) {
    config_.router.policy = service::router_policy_from_env();
  }
  if (config_.router.enabled()) {
    router_.emplace(config_.targets, config_.steps, config_.router);
  }

  // Overload layer (DESIGN.md §2.10): an explicit config wins; fields
  // left at zero fall back to BINOPT_SERVICE_SHED_WATERMARK /
  // BINOPT_SERVICE_SOJOURN_TARGET_US, mirroring the router's env knob.
  // Disarmed (the default), overload_armed_ stays false and every
  // overload branch in the hot path is one never-taken comparison.
  config_.overload.validate();
  config_.overload.apply_env();
  config_.overload.validate();
  overload_armed_ = config_.overload.enabled();
  if (overload_armed_) {
    controller_.emplace(config_.overload, config_.queue_capacity);
  }

  // One shared ring, or one per worker under routing. The admission
  // credit bounds the rings' total occupancy to queue_capacity, so any one
  // ring never needs more than next_pow2(queue_capacity) slots.
  const std::size_t ring_capacity = service::next_pow2(config_.queue_capacity);
  const std::size_t ring_count =
      router_.has_value() ? config_.targets.size() : 1;
  for (std::size_t i = 0; i < ring_count; ++i) {
    rings_.push_back(
        std::make_unique<service::MpmcRing<Request*>>(ring_capacity));
  }
  // Arena bound: everything that can hold a slot at once — the queued
  // population, every worker's in-flight batch, and a margin of
  // submitters blocked mid-admission. Past the bound, acquire() waits for
  // recycling instead of growing (a second backpressure layer).
  arena_.emplace(ring_capacity + config_.targets.size() * config_.max_batch +
                 1024);

  tracer_ = config_.tracer ? config_.tracer : ocl::trace::env_tracer();
  if (tracer_ != nullptr) {
    trace_pid_ = tracer_->register_process("pricing-service");
    for (std::size_t i = 0; i < config_.targets.size(); ++i) {
      tracer_->set_thread_name(trace_pid_, i,
                               "worker " + std::to_string(i) + " (" +
                                   to_string(config_.targets[i]) + ")");
    }
  }
  workers_.reserve(config_.targets.size());
  for (std::size_t i = 0; i < config_.targets.size(); ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->target = config_.targets[i];
    workers_.back()->index = i;
    workers_.back()->health = service::BackendHealth(config_.health);
    // Distinct jitter streams per worker (any distinct seeds do).
    workers_.back()->rng = 0x9E3779B97F4A7C15ull * (i + 1);
  }
  // Spawn only after every Worker slot exists: workers index into workers_.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

PricingService::~PricingService() {
  stopping_.store(true, std::memory_order_release);
  not_empty_.notify();
  not_full_.notify();
  // Let every submitter leave admission first (blocked ones wake, see
  // stopping_, and bail), so no push can race the workers' final drain.
  while (admissions_in_flight_.load(std::memory_order_acquire) > 0) {
    not_full_.notify();
    not_empty_.notify();
    std::this_thread::sleep_for(std::chrono::microseconds{50});
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  // Belt and braces: workers drain every admitted request before exiting,
  // but a request admitted in the closing race window (after the last
  // worker's final empty-check) would otherwise dangle its future.
  const auto error = std::make_exception_ptr(
      ServiceShutdownError("pricing service is shutting down"));
  Request* request = nullptr;
  for (auto& ring : rings_) {
    while (ring->try_pop(request)) {
      queue_count_.fetch_sub(1, std::memory_order_acq_rel);
      fail(*request, error);
      release_request(request);
    }
  }
  {
    const std::lock_guard<std::mutex> lock(retry_mutex_);
    for (Request* r : retry_queue_) {
      fail(*r, error);
      release_request(r);
    }
    retry_queue_.clear();
    retry_count_.store(0, std::memory_order_release);
  }
}

void PricingService::fulfil(Request& request, double price, Target target,
                            Target routed_target, bool from_cache,
                            bool degraded, bool browned_out,
                            double accuracy_bound) {
  if (request.resolved) return;  // at-most-once, by construction
  request.resolved = true;
  switch (request.sink) {
    case SinkKind::kSingle:
      request.single->set_value(Quote{price, target, routed_target, from_cache,
                                      degraded, browned_out, accuracy_bound});
      return;
    case SinkKind::kBatch: {
      BatchState& batch = *request.batch;
      batch.results[request.index] = price;
      // The last element to resolve publishes the whole vector; if any
      // element failed, the batch promise already carries that exception.
      if (batch.remaining.fetch_sub(1) == 1 && !batch.failed.load()) {
        batch.promise.set_value(std::move(batch.results));
      }
      return;
    }
    case SinkKind::kSync: {
      SyncGroup& group = *request.sync;
      const std::lock_guard<std::mutex> lock(group.mutex);
      group.out[request.index] = price;
      if (--group.remaining == 0) group.cv.notify_all();
      return;
    }
  }
}

void PricingService::fail(Request& request, const std::exception_ptr& error) {
  if (request.resolved) return;  // at-most-once, by construction
  request.resolved = true;
  switch (request.sink) {
    case SinkKind::kSingle:
      request.single->set_exception(error);
      return;
    case SinkKind::kBatch: {
      BatchState& batch = *request.batch;
      // First failure wins the batch promise; later outcomes only count
      // down.
      if (!batch.failed.exchange(true)) {
        batch.promise.set_exception(error);
      }
      batch.remaining.fetch_sub(1);
      return;
    }
    case SinkKind::kSync: {
      SyncGroup& group = *request.sync;
      const std::lock_guard<std::mutex> lock(group.mutex);
      if (!group.failed) {
        group.failed = true;
        group.error = error;
      }
      if (--group.remaining == 0) group.cv.notify_all();
      return;
    }
  }
}

void PricingService::check_admissible(const finance::OptionSpec& spec) {
  // Field-by-field finiteness first so the rejection names the culprit:
  // a NaN/Inf field would be undefined behaviour in the quote cache's
  // llround-based key quantization, not merely a bad price.
  const std::pair<const char*, double> fields[] = {
      {"spot", spec.spot},           {"strike", spec.strike},
      {"rate", spec.rate},           {"dividend", spec.dividend},
      {"volatility", spec.volatility}, {"maturity", spec.maturity}};
  for (const auto& [name, value] : fields) {
    if (!std::isfinite(value)) {
      std::ostringstream os;
      os << "pricing service rejected request: OptionSpec field '" << name
         << "' is not finite (" << value << ")";
      throw ServiceRejectedError(name, os.str());
    }
  }
  // Range checks (positive spot/strike/vol/maturity, non-negative
  // dividend) reuse the spec's own contract.
  try {
    spec.validate();
  } catch (const PreconditionError& error) {
    throw ServiceRejectedError(
        "spec", std::string("pricing service rejected request: ") +
                    error.what());
  }
}

std::chrono::steady_clock::time_point PricingService::deadline_for(
    std::chrono::milliseconds timeout, bool& has_deadline) const {
  has_deadline = timeout >= std::chrono::milliseconds::zero();
  return has_deadline ? std::chrono::steady_clock::now() + timeout
                      : std::chrono::steady_clock::time_point{};
}

void PricingService::init_request(
    Request& request, const finance::OptionSpec& spec,
    std::chrono::steady_clock::time_point deadline, bool has_deadline,
    std::chrono::steady_clock::time_point admitted_at,
    std::uint32_t cache_tag, Priority priority) {
  request.spec = spec;
  request.cache_tag = cache_tag;
  request.priority = priority;
  request.deadline = deadline;
  request.admitted_at = admitted_at;
  request.has_deadline = has_deadline;
  request.attempts = 0;
  request.ready_at = {};
  request.has_ready_at = false;
  request.resolved = false;
  request.routed_worker = 0;
  request.has_route = false;
  request.sink = SinkKind::kSingle;
  request.single.reset();
  request.batch.reset();
  request.sync = nullptr;
  request.index = 0;
}

void PricingService::release_request(Request* request) {
  request->single.reset();
  request->batch.reset();
  request->sync = nullptr;
  request->resolved = false;
  arena_->release(request);
}

std::future<Quote> PricingService::submit(const finance::OptionSpec& spec) {
  return submit(spec, config_.default_timeout);
}

std::future<Quote> PricingService::submit(const finance::OptionSpec& spec,
                                          std::chrono::milliseconds timeout,
                                          std::uint32_t cache_tag,
                                          Priority priority) {
  check_admissible(spec);
  bool has_deadline = false;
  const auto deadline = deadline_for(timeout, has_deadline);
  Request* request = arena_->acquire();
  init_request(*request, spec, deadline, has_deadline,
               std::chrono::steady_clock::now(), cache_tag, priority);
  request->single.emplace();
  std::future<Quote> future = request->single->get_future();
  // After a successful admission the slot belongs to the workers (it may
  // resolve and recycle before we return) — hence the future is taken
  // first and the pointer is dead to us past this call. An admission
  // timeout is settled inside enqueue_requests and counts as consumed,
  // so the future then already carries ServiceTimeoutError.
  AdmitOutcome abort;
  if (enqueue_requests(&request, 1, &abort) != 1) {
    if (abort.result == AdmitResult::kShed) {
      const ServiceOverloadError error =
          make_shed_error(priority, abort.occupancy, abort.threshold);
      fail(*request, std::make_exception_ptr(error));
      release_request(request);
      throw error;
    }
    fail(*request, std::make_exception_ptr(ServiceShutdownError(
                       "pricing service is shutting down")));
    release_request(request);
    throw ServiceShutdownError("pricing service is shutting down");
  }
  return future;
}

std::future<std::vector<double>> PricingService::submit_batch(
    const std::vector<finance::OptionSpec>& specs) {
  return submit_batch(specs, config_.default_timeout);
}

std::future<std::vector<double>> PricingService::submit_batch(
    const std::vector<finance::OptionSpec>& specs,
    std::chrono::milliseconds timeout, std::uint32_t cache_tag,
    Priority priority) {
  auto state = std::make_shared<BatchState>(specs.size());
  std::future<std::vector<double>> future = state->promise.get_future();
  if (specs.empty()) {
    state->promise.set_value({});
    return future;
  }
  // Validate before leasing any slot, so a rejected spec leaks nothing.
  for (const finance::OptionSpec& spec : specs) check_admissible(spec);
  bool has_deadline = false;
  const auto deadline = deadline_for(timeout, has_deadline);
  const auto admitted_at = std::chrono::steady_clock::now();
  std::vector<Request*> requests;
  requests.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Request* request = arena_->acquire();
    init_request(*request, specs[i], deadline, has_deadline, admitted_at,
                 cache_tag, priority);
    request->sink = SinkKind::kBatch;
    request->batch = state;
    request->index = i;
    requests.push_back(request);
  }
  AdmitOutcome abort;
  const std::size_t consumed =
      enqueue_requests(requests.data(), requests.size(), &abort);
  if (consumed == requests.size()) return future;
  // Shutdown or a shed interrupted admission: resolve the untouched tail
  // so the caller's future never dangles, then surface the typed error.
  if (abort.result == AdmitResult::kShed) {
    const ServiceOverloadError shed =
        make_shed_error(priority, abort.occupancy, abort.threshold);
    const auto error = std::make_exception_ptr(shed);
    for (std::size_t i = consumed; i < requests.size(); ++i) {
      fail(*requests[i], error);
      release_request(requests[i]);
    }
    throw shed;
  }
  const auto error = std::make_exception_ptr(
      ServiceShutdownError("pricing service is shutting down"));
  for (std::size_t i = consumed; i < requests.size(); ++i) {
    fail(*requests[i], error);
    release_request(requests[i]);
  }
  throw ServiceShutdownError("pricing service is shutting down");
}

void PricingService::price_batch_blocking(const finance::OptionSpec* specs,
                                          std::size_t n, double* out) {
  price_batch_blocking(specs, n, out, config_.default_timeout);
}

void PricingService::price_batch_blocking(const finance::OptionSpec* specs,
                                          std::size_t n, double* out,
                                          std::chrono::milliseconds timeout,
                                          std::uint32_t cache_tag,
                                          Priority priority) {
  BINOPT_REQUIRE(specs != nullptr || n == 0, "null spec array");
  BINOPT_REQUIRE(out != nullptr || n == 0, "null output array");
  if (n == 0) return;
  // Validate before leasing any slot, so a rejected spec leaks nothing.
  for (std::size_t i = 0; i < n; ++i) check_admissible(specs[i]);
  bool has_deadline = false;
  const auto deadline = deadline_for(timeout, has_deadline);
  const auto admitted_at = std::chrono::steady_clock::now();

  SyncGroup group;
  group.remaining = n;
  group.out = out;

  // Admit one at a time — no side array of pointers, so the whole call
  // allocates nothing: once admitted, a request resolves straight into
  // `out` through the group and recycles its slot without us ever
  // touching it again.
  std::size_t not_admitted = 0;
  AdmitOutcome abort;
  {
    const AdmissionScope scope(admissions_in_flight_);
    std::size_t pick = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Request* request = arena_->acquire();
      init_request(*request, specs[i], deadline, has_deadline, admitted_at,
                   cache_tag, priority);
      request->sink = SinkKind::kSync;
      request->sync = &group;
      request->index = i;
      if (router_.has_value()) {
        // Same per-chunk placement as enqueue_requests (pick() allocates
        // nothing, so the zero-alloc promise of this path holds).
        if (i % config_.max_batch == 0) {
          pick = router_->pick(std::min(config_.max_batch, n - i));
        }
        request->routed_worker = pick;
        request->has_route = true;
      }
      const AdmitOutcome outcome = admit_one(request);
      if (outcome.result == AdmitResult::kAdmitted) {
        submitted_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (outcome.result == AdmitResult::kTimedOut) {
        // The element's own deadline fired at admission or while parked
        // on backpressure (satellite 1): settle it in place without ever
        // holding a queue slot, keep admitting the rest (they carry the
        // same deadline and settle the same way, cheaply).
        submitted_.fetch_add(1, std::memory_order_relaxed);
        admission_timeouts_.fetch_add(1, std::memory_order_relaxed);
        fail(*request,
             std::make_exception_ptr(ServiceTimeoutError(
                 "quote request expired at admission (deadline passed "
                 "before a queue slot freed)")));
        release_request(request);
        continue;
      }
      release_request(request);
      not_admitted = n - i;
      abort = outcome;
      break;
    }
  }
  if (not_admitted > 0) {
    // Shutdown or shed mid-admission: settle the unadmitted tail locally,
    // then fall through to wait for whatever was admitted before throwing.
    const std::lock_guard<std::mutex> lock(group.mutex);
    if (!group.failed) {
      group.failed = true;
      group.error =
          abort.result == AdmitResult::kShed
              ? std::make_exception_ptr(make_shed_error(
                    priority, abort.occupancy, abort.threshold))
              : std::make_exception_ptr(ServiceShutdownError(
                    "pricing service is shutting down"));
    }
    group.remaining -= not_admitted;
  }
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(group.mutex);
    group.cv.wait(lock, [&] { return group.remaining == 0; });
    if (group.failed) error = group.error;
  }
  if (error) std::rethrow_exception(error);
}

PricingService::AdmitOutcome PricingService::admit_one(Request* request) {
  // Overload shedding (armed only): refuse below-realtime classes at
  // their watermark BEFORE the credit CAS, so a shed never consumes a
  // queue slot, never blocks, and never silently drops — the caller gets
  // the typed refusal with the occupancy/threshold it was judged by.
  // kRealtime traffic always keeps the blocking path. The check happens
  // once, at admission entry: a request that passed it may still block on
  // a queue that fills behind it (shed-at-admission, not shed-while-
  // parked).
  if (overload_armed_ && request->priority != Priority::kRealtime) {
    const std::size_t occupancy = queue_count_.load(std::memory_order_acquire);
    const std::size_t threshold = request->priority == Priority::kBatch
                                      ? controller_->batch_watermark()
                                      : controller_->normal_watermark();
    if (occupancy >= threshold) {
      (request->priority == Priority::kBatch ? shed_batch_ : shed_normal_)
          .fetch_add(1, std::memory_order_relaxed);
      return {AdmitResult::kShed, occupancy, threshold};
    }
  }
  // Deadline gate (satellite 1): a request whose deadline fires before a
  // credit frees is refused here instead of entering the queue already
  // dead. The block start is stamped once so admission_block_ns measures
  // the whole backpressure wait the submitter experienced.
  const auto block_start = std::chrono::steady_clock::now();
  bool blocked = false;
  const auto settle_block = [&](std::chrono::steady_clock::time_point end) {
    if (blocked) {
      const std::lock_guard<std::mutex> lock(admission_hist_mutex_);
      admission_block_.record(elapsed_ns(block_start, end));
    } else {
      admissions_unblocked_.fetch_add(1, std::memory_order_relaxed);
    }
  };
  if (request->has_deadline &&
      deadline_expired(block_start, request->deadline)) {
    settle_block(block_start);
    return {AdmitResult::kTimedOut};
  }
  // Acquire one admission credit: the credit count — not the ring's
  // rounded-up physical size — is what bounds queued_requests() to
  // queue_capacity.
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) {
      settle_block(std::chrono::steady_clock::now());
      return {AdmitResult::kShutdown};
    }
    std::size_t count = queue_count_.load(std::memory_order_relaxed);
    bool acquired = false;
    while (count < config_.queue_capacity) {
      if (queue_count_.compare_exchange_weak(count, count + 1,
                                             std::memory_order_acq_rel)) {
        acquired = true;
        break;
      }
    }
    if (acquired) break;
    const auto now = std::chrono::steady_clock::now();
    if (request->has_deadline && deadline_expired(now, request->deadline)) {
      // Parked on a full queue past the request's own deadline: refuse
      // without a slot (the pre-fix service blocked here indefinitely,
      // honouring the deadline only after admission).
      settle_block(now);
      return {AdmitResult::kTimedOut};
    }
    blocked = true;
    auto wake = now + kBackpressureNap;
    if (request->has_deadline) {
      // Wake at the deadline (plus a tick past the strict `>` edge) so a
      // doomed wait ends on time instead of at the next nap boundary.
      wake = std::min(wake, request->deadline + std::chrono::microseconds{1});
    }
    not_full_.wait_until(wake, [&] {
      return stopping_.load(std::memory_order_relaxed) ||
             queue_count_.load(std::memory_order_relaxed) <
                 config_.queue_capacity;
    });
  }
  settle_block(std::chrono::steady_clock::now());
  std::size_t ring = 0;
  if (router_.has_value()) {
    // Routed: the request was stamped with its placement just before
    // admission. The backlog is accounted before the push so a consumer's
    // on_dequeued can never run ahead of it.
    ring = request->routed_worker;
    router_->on_enqueued(ring, 1);
  }
  // With a credit held the ring has logical room; a failed push only
  // means a consumer is mid-recycle on that slot — yield and retry.
  while (!rings_[ring]->try_push(request)) std::this_thread::yield();
  not_empty_.notify();
  return {AdmitResult::kAdmitted};
}

std::size_t PricingService::enqueue_requests(Request* const* requests,
                                             std::size_t n,
                                             AdmitOutcome* abort) {
  const AdmissionScope scope(admissions_in_flight_);
  std::size_t pick = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (router_.has_value()) {
      // Per-batch placement: one cost-model pick per max_batch chunk (the
      // unit a worker launches), re-evaluated as earlier chunks land so a
      // long curve spreads across the fleet instead of swamping the
      // cheapest backend.
      if (i % config_.max_batch == 0) {
        pick = router_->pick(std::min(config_.max_batch, n - i));
      }
      requests[i]->routed_worker = pick;
      requests[i]->has_route = true;
    }
    const AdmitOutcome outcome = admit_one(requests[i]);
    switch (outcome.result) {
      case AdmitResult::kAdmitted:
        submitted_.fetch_add(1, std::memory_order_relaxed);
        continue;
      case AdmitResult::kTimedOut:
        // Satellite 1: the deadline fired at admission or while parked on
        // backpressure. The request never held a queue slot; settle it in
        // place and keep going — it still counts as submitted (the client
        // handed it over) and as an admission timeout (folded into
        // requests_timed_out by stats()).
        submitted_.fetch_add(1, std::memory_order_relaxed);
        admission_timeouts_.fetch_add(1, std::memory_order_relaxed);
        fail(*requests[i],
             std::make_exception_ptr(ServiceTimeoutError(
                 "quote request expired at admission (deadline passed "
                 "before a queue slot freed)")));
        release_request(requests[i]);
        continue;
      case AdmitResult::kShutdown:
      case AdmitResult::kShed:
        if (abort != nullptr) *abort = outcome;
        return i;
    }
  }
  return n;
}

std::size_t PricingService::pop_ring(
    std::size_t ring, std::chrono::steady_clock::time_point now,
    std::vector<Request*>& out, std::size_t limit, Worker& self) {
  std::size_t popped = 0;
  Request* request = nullptr;
  while (out.size() < limit && rings_[ring]->try_pop(request)) {
    queue_count_.fetch_sub(1, std::memory_order_acq_rel);
    if (router_.has_value()) router_->on_dequeued(ring, 1);
    if (expired_in_queue(*request, now)) {
      self.eager_drops.push_back(request);
      continue;
    }
    out.push_back(request);
    ++popped;
  }
  return popped;
}

std::size_t PricingService::pop_available(
    std::chrono::steady_clock::time_point now, std::vector<Request*>& out,
    std::size_t limit, Worker& self, bool probing) {
  std::size_t popped = 0;
  // Ready retries first: redelivered work is older than anything fresh.
  // The atomic guard keeps the fault-free hot path off the retry lock.
  if (retry_count_.load(std::memory_order_acquire) > 0) {
    const bool stopping = stopping_.load(std::memory_order_acquire);
    const std::lock_guard<std::mutex> lock(retry_mutex_);
    for (auto it = retry_queue_.begin();
         it != retry_queue_.end() && out.size() < limit;) {
      Request* request = *it;
      // Expired retries are dead regardless of their backoff window.
      if (!stopping && expired_in_queue(*request, now)) {
        self.eager_drops.push_back(request);
        it = retry_queue_.erase(it);
        continue;
      }
      // During shutdown backoffs are ignored so draining stays fast.
      if (stopping || !request->has_ready_at || request->ready_at <= now) {
        out.push_back(request);
        it = retry_queue_.erase(it);
        ++popped;
      } else {
        ++it;
      }
    }
    retry_count_.store(retry_queue_.size(), std::memory_order_release);
  }
  // The ring pops FIFO; EDF within the window happens in collect_batch's
  // sort.
  const std::size_t own = router_.has_value() ? self.index : 0;
  popped += pop_ring(own, now, out, limit, self);
  // A probing (quarantined) backend receives no fresh placement, so with
  // nothing of its own it would never launch a probe and never recover:
  // steal one queued request from a peer's ring. The steal shows up as a
  // misroute — honest attribution over perfect placement.
  if (probing && out.empty()) {
    for (std::size_t peer = 0; peer < rings_.size() && out.empty(); ++peer) {
      if (peer != own) popped += pop_ring(peer, now, out, 1, self);
    }
  }
  if (!self.eager_drops.empty()) {
    // Resolve the staged drops. Their queue credits were returned at pop
    // time (retry-queue entries never held one — requeue() bypasses
    // admission credits).
    const auto error = std::make_exception_ptr(ServiceTimeoutError(
        "quote request expired in queue (eagerly dropped before "
        "occupying a batch slot)"));
    {
      const std::lock_guard<std::mutex> lock(self.shard_mutex);
      for (const Request* request : self.eager_drops) {
        self.shard.queue_wait_ns.record(elapsed_ns(request->admitted_at, now));
        self.shard.request_latency_ns.record(
            elapsed_ns(request->admitted_at, now));
        ++self.shard.requests_timed_out;
        ++self.shard.eager_deadline_drops;
      }
    }
    for (Request* request : self.eager_drops) {
      fail(*request, error);
      release_request(request);
    }
    popped += self.eager_drops.size();
    self.eager_drops.clear();
  }
  if (popped > 0) not_full_.notify();
  return popped;
}

bool PricingService::retry_ready(std::chrono::steady_clock::time_point now) {
  if (retry_count_.load(std::memory_order_acquire) == 0) return false;
  if (stopping_.load(std::memory_order_acquire)) return true;
  const std::lock_guard<std::mutex> lock(retry_mutex_);
  for (const Request* request : retry_queue_) {
    if (!request->has_ready_at || request->ready_at <= now) return true;
  }
  return false;
}

bool PricingService::collect_batch(Worker& self, std::vector<Request*>& out,
                                   std::size_t limit, bool probing) {
  out.clear();
  // Wake for work this worker can take: its own ring, a ready retry, or
  // shutdown. A probing worker steals from its peers, so any backlog
  // wakes it. (Waking on the global count would spin a routed worker
  // whose ring is empty while a peer has backlog.)
  const service::MpmcRing<Request*>& ring =
      *rings_[router_.has_value() ? self.index : 0];
  const auto has_work = [&] {
    return stopping_.load(std::memory_order_relaxed) || !ring.empty_approx() ||
           (probing && queue_count_.load(std::memory_order_relaxed) > 0) ||
           retry_ready(std::chrono::steady_clock::now());
  };
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    pop_available(now, out, limit, self, probing);
    if (!out.empty()) break;
    if (stopping_.load(std::memory_order_acquire) &&
        queue_count_.load(std::memory_order_acquire) == 0 &&
        retry_count_.load(std::memory_order_acquire) == 0) {
      return false;  // fully drained
    }
    // Idle: park until an arrival, the earliest pending retry, or
    // shutdown (the nap caps a theoretically-lost wakeup, nothing more).
    auto wake = now + kIdleNap;
    if (retry_count_.load(std::memory_order_acquire) > 0) {
      const std::lock_guard<std::mutex> lock(retry_mutex_);
      for (const Request* request : retry_queue_) {
        if (request->has_ready_at) wake = std::min(wake, request->ready_at);
      }
    }
    not_empty_.wait_until(wake, has_work);
  }

  // Micro-batching: hold a partial batch open for up to `linger` so that a
  // burst of single submits coalesces into one NDRange launch instead of
  // many tiny ones. Stop early on a full batch or shutdown.
  if (out.size() < limit &&
      config_.linger > std::chrono::microseconds::zero() &&
      !stopping_.load(std::memory_order_acquire)) {
    const auto linger_deadline =
        std::chrono::steady_clock::now() + config_.linger;
    while (out.size() < limit &&
           !stopping_.load(std::memory_order_acquire)) {
      if (!not_empty_.wait_until(linger_deadline, has_work)) {
        break;  // linger window expired
      }
      pop_available(std::chrono::steady_clock::now(), out, limit, self,
                    probing);
    }
  }
  if (overload_armed_ && out.size() > 1) {
    // Deadline-aware batch formation: EDF order within the collected
    // window. The rings pop FIFO; this sort is what makes each window
    // deadline-aware, and it keeps retry-first pops in EDF order too.
    // Insertion sort, not std::stable_sort: it is equally stable (pop
    // order preserved among equal keys) but allocates no merge buffer, so
    // arming the layer keeps the zero-allocation fast path
    // (tests/core/test_alloc_hotpath.cpp pins this). The window is
    // bounded by max_batch and usually far smaller, and the common case —
    // already in order — is a linear scan.
    const auto edf_key = [](const Request* request) {
      return service::EdfKey{request->has_deadline, request->deadline,
                             request->admitted_at};
    };
    for (std::size_t i = 1; i < out.size(); ++i) {
      Request* request = out[i];
      const service::EdfKey key = edf_key(request);
      std::size_t j = i;
      while (j > 0 && service::edf_before(key, edf_key(out[j - 1]))) {
        out[j] = out[j - 1];
        --j;
      }
      out[j] = request;
    }
  }
  return true;
}

void PricingService::drain_ring(Worker& worker) {
  // Failover for a freshly-opened circuit: everything placed on this
  // backend but not yet collected moves to the shared retry queue, where
  // any surviving worker picks it up immediately. The requests keep their
  // route stamp — the server that prices them counts the misroute.
  std::vector<Request*>& staged = worker.requeue_ptrs;
  staged.clear();
  Request* request = nullptr;
  while (rings_[worker.index]->try_pop(request)) {
    queue_count_.fetch_sub(1, std::memory_order_acq_rel);
    router_->on_dequeued(worker.index, 1);
    request->has_ready_at = false;
    staged.push_back(request);
  }
  if (staged.empty()) return;
  {
    const std::lock_guard<std::mutex> lock(worker.shard_mutex);
    worker.shard.failovers += staged.size();
  }
  requeue(staged.data(), staged.size());
  not_full_.notify();
  staged.clear();
}

void PricingService::requeue(Request* const* requests, std::size_t n) {
  if (n == 0) return;
  {
    const std::lock_guard<std::mutex> lock(retry_mutex_);
    for (std::size_t i = 0; i < n; ++i) {
      retry_queue_.push_back(requests[i]);
    }
    retry_count_.store(retry_queue_.size(), std::memory_order_release);
  }
  not_empty_.notify();
}

void PricingService::worker_loop(std::size_t worker_index) {
  Worker& worker = *workers_[worker_index];
  PricingAccelerator::Config acfg;
  acfg.target = worker.target;
  acfg.steps = config_.steps;
  acfg.compute_rmse = false;
  acfg.compute_units = config_.compute_units;
  if (worker.index < config_.worker_fault_plans.size()) {
    acfg.fault_plan = config_.worker_fault_plans[worker.index];
  }
  PricingAccelerator accelerator(std::move(acfg));
  // Reserve every scratch vector once: the steady-state collect -> price
  // -> resolve cycle then allocates nothing.
  worker.batch.reserve(config_.max_batch);
  worker.completions.reserve(config_.max_batch);
  worker.failures.reserve(config_.max_batch);
  worker.to_price.reserve(config_.max_batch);
  worker.to_requeue.reserve(config_.max_batch);
  worker.requeue_ptrs.reserve(config_.max_batch);
  worker.to_degrade.reserve(config_.max_batch);
  worker.to_brownout.reserve(config_.max_batch);
  worker.brownout_specs.reserve(config_.max_batch);
  worker.brownout_prices.reserve(config_.max_batch);
  worker.eager_drops.reserve(config_.max_batch);
  worker.specs.reserve(config_.max_batch);
  worker.tags.reserve(config_.max_batch);
  worker.prices.reserve(config_.max_batch);
  // Pre-size the per-backend attribution vectors in both the reusable
  // batch delta and this worker's shard: ServiceStats::bump() then never
  // resizes and `shard += delta` (add_padded) never grows, so per-batch
  // stats accounting stays allocation-free.
  worker.delta.routed_by_backend.resize(workers_.size(), 0);
  worker.delta.served_by_backend.resize(workers_.size(), 0);
  {
    std::lock_guard<std::mutex> lock(worker.shard_mutex);
    worker.shard.routed_by_backend.resize(workers_.size(), 0);
    worker.shard.served_by_backend.resize(workers_.size(), 0);
  }
  for (;;) {
    bool probing = false;
    // Quarantine gate: while this backend's circuit is open and the next
    // half-open probe is not due, pull no traffic — the shared ring
    // fails the load over to the surviving workers. Shutdown overrides
    // the gate so a broken backend cannot strand queued requests. Under
    // routing the gate first mirrors the open circuit to the router (no
    // fresh placement) and hands the already-placed backlog to the fleet.
    if (router_.has_value() && !worker.health.serving()) {
      router_->set_routable(worker.index, false);
      drain_ring(worker);
    }
    while (!stopping_.load(std::memory_order_acquire) &&
           !worker.health.serving() &&
           !worker.health.probe_due(std::chrono::steady_clock::now())) {
      not_empty_.wait_until(worker.health.next_probe_at(), [&] {
        return stopping_.load(std::memory_order_relaxed);
      });
    }
    probing = !stopping_.load(std::memory_order_acquire) &&
              worker.health.state() == service::HealthState::kQuarantined;
    // A probe is one request: the smallest blast radius that still
    // exercises the real pricing path end to end.
    if (!collect_batch(worker, worker.batch,
                       probing ? 1 : config_.max_batch, probing)) {
      break;
    }
    if (router_.has_value()) {
      // Keep the health mirror fresh on the serving path too (recovery
      // flips it back on the first post-probe pass through here).
      router_->set_routable(worker.index, worker.health.serving());
    }
    try {
      process_batch(worker, accelerator, probing);
    } catch (...) {
      // Last-resort guard: process_batch resolves every request itself,
      // but if it ever unwinds (allocation failure, a bug), no admitted
      // promise may dangle — fail whatever is still unresolved and keep
      // serving. Requeued/resolved entries were nulled out and stay
      // untouched.
      const std::exception_ptr error = std::current_exception();
      for (Request*& request : worker.batch) {
        if (request == nullptr) continue;
        if (!request->resolved) fail(*request, error);
        release_request(request);
        request = nullptr;
      }
    }
  }
}

void PricingService::process_batch(Worker& worker,
                                   PricingAccelerator& accelerator,
                                   bool probing) {
  const Target target = worker.target;
  std::vector<Request*>& batch = worker.batch;
  const auto now = std::chrono::steady_clock::now();
  // Reusable scratch (pre-sized in worker_loop): cleared in place so a
  // steady-state batch records stats without heap traffic.
  ServiceStats& delta = worker.delta;
  delta.clear_keep_capacity();

  const auto note_health =
      [&delta](const service::BackendHealth::Event& event) {
        if (event.changed()) ++delta.health_transitions;
        if (event.entered_quarantine()) ++delta.quarantines_entered;
        if (event.recovered()) {
          ++delta.recoveries;
          delta.time_to_recovery_ns.record(event.recovered_after_ns);
        }
      };

  // Outcomes are computed first and the sinks resolved LAST, after the
  // stats delta lands in the worker shard: a client that calls stats()
  // right after future.get() must already see its own request counted.
  std::vector<Completion>& completions = worker.completions;
  std::vector<Failure>& failures = worker.failures;
  std::vector<std::size_t>& to_price = worker.to_price;
  std::vector<std::size_t>& to_requeue = worker.to_requeue;
  std::vector<std::size_t>& to_degrade = worker.to_degrade;
  std::vector<std::size_t>& to_brownout = worker.to_brownout;
  std::vector<finance::OptionSpec>& specs = worker.specs;
  std::vector<std::uint32_t>& tags = worker.tags;
  std::vector<double>& prices = worker.prices;
  completions.clear();
  failures.clear();
  to_price.clear();
  to_requeue.clear();
  to_degrade.clear();
  to_brownout.clear();
  specs.clear();
  tags.clear();
  prices.clear();

  // Accuracy-bounded brownout trigger (DESIGN.md §2.10), sampled once per
  // batch: the controller's sustained-delay state, or instantaneous
  // pressure (this batch plus the standing queue) at/above the kBatch
  // watermark. Opt-in and kBatch-only — realtime/normal work always gets
  // full fidelity.
  const bool brownout_active =
      overload_armed_ && config_.overload.brownout &&
      (controller_->overloaded() ||
       batch.size() + queue_count_.load(std::memory_order_acquire) >=
           controller_->batch_watermark());

  auto earliest_admission = now;
  for (std::size_t pos = 0; pos < batch.size(); ++pos) {
    Request& request = *batch[pos];
    // Queue wait: admission to batch collection, for every popped request
    // (expired ones included — that wait is *why* they expired).
    const std::uint64_t sojourn_ns = elapsed_ns(request.admitted_at, now);
    delta.queue_wait_ns.record(sojourn_ns);
    if (overload_armed_) controller_->observe(sojourn_ns, now);
    earliest_admission = std::min(earliest_admission, request.admitted_at);
    if (request.has_route) {
      // Placement accounting: routed once (first collection — retries of
      // the same request must not inflate it), misrouted per collection by
      // a worker other than the routed one (failover, probe steal).
      if (request.attempts == 0) {
        ++delta.requests_routed;
        ServiceStats::bump(delta.routed_by_backend, request.routed_worker);
      }
      if (request.routed_worker != worker.index) ++delta.requests_misrouted;
    }
    // Expiry first: a stale quote is worthless even if cached — serving it
    // would hide that the client's deadline was missed.
    if (request.has_deadline && deadline_expired(now, request.deadline)) {
      failures.push_back(
          {pos, std::make_exception_ptr(ServiceTimeoutError(
                    "quote request expired before pricing"))});
      ++delta.requests_timed_out;
      continue;
    }
    if (cache_.enabled()) {
      const CacheKey key = CacheKey::from(request.spec, config_.steps, target,
                                          request.cache_tag);
      if (const auto hit = cache_.lookup(key)) {
        completions.push_back({pos, *hit, /*from_cache=*/true,
                               /*degraded=*/false});
        ++delta.cache_hits;
        continue;
      }
      ++delta.cache_misses;
    }
    // Brownout: kBatch-class cache misses under sustained overload price
    // on the reduced-fidelity sibling instead of the full path.
    if (brownout_active && request.priority == Priority::kBatch) {
      to_brownout.push_back(pos);
      continue;
    }
    to_price.push_back(pos);
    specs.push_back(request.spec);
    tags.push_back(request.cache_tag);
  }

  auto launch_start = now;
  auto launch_end = now;
  if (!to_price.empty()) {
    ++delta.batches_launched;
    delta.options_priced += to_price.size();
    delta.batch_fill.record(to_price.size());
    if (probing) ++delta.probes_launched;
    launch_start = std::chrono::steady_clock::now();
    std::exception_ptr fault_error;
    bool fatal = false;
    try {
      prices.resize(to_price.size());
      accelerator.run_prices(specs.data(), specs.size(), prices.data());
      launch_end = std::chrono::steady_clock::now();
      note_health(worker.health.record_success(launch_end));
      if (probing) ++delta.probes_succeeded;
      for (std::size_t i = 0; i < to_price.size(); ++i) {
        if (cache_.enabled()) {
          delta.cache_evictions += cache_.insert(
              CacheKey::from(specs[i], config_.steps, target, tags[i]),
              prices[i]);
        }
        completions.push_back({to_price[i], prices[i],
                               /*from_cache=*/false, /*degraded=*/false});
      }
    } catch (const ocl::faults::DeviceLostError&) {
      launch_end = std::chrono::steady_clock::now();
      fault_error = std::current_exception();
      fatal = true;
    } catch (const ocl::faults::TransientDeviceError&) {
      launch_end = std::chrono::steady_clock::now();
      fault_error = std::current_exception();
    } catch (...) {
      // A non-fault error (contract violation, kernel bug) is not a device
      // failure: retrying or failing over would just re-run the bug
      // elsewhere. Fail the batch, leave the backend's health alone.
      launch_end = std::chrono::steady_clock::now();
      const std::exception_ptr error = std::current_exception();
      for (const std::size_t pos : to_price) {
        failures.push_back({pos, error});
        ++delta.requests_failed;
      }
    }
    if (router_.has_value()) {
      // Model-vs-measured feedback, faulted launches included: wasted wall
      // time on a flaky backend is exactly the signal that should push
      // traffic elsewhere before its circuit breaker trips. The histogram
      // keeps the ratio in permille (1000 = model exact).
      const double ratio = router_->record_measurement(
          worker.index, to_price.size(),
          elapsed_ns(launch_start, launch_end));
      delta.predicted_vs_measured.record(
          static_cast<std::uint64_t>(std::llround(ratio * 1000.0)));
    }
    if (fault_error) {
      note_health(fatal ? worker.health.record_fatal(launch_end)
                        : worker.health.record_transient(launch_end));
      if (probing) ++delta.probes_failed;
      for (const std::size_t pos : to_price) {
        Request& request = *batch[pos];
        ++request.attempts;
        if (request.attempts < config_.retry.max_attempts) {
          if (fatal) {
            // Failover: the backend is quarantined; a surviving worker may
            // pick the request up immediately.
            request.has_ready_at = false;
            ++delta.failovers;
          } else {
            request.ready_at =
                launch_end + config_.retry.backoff_for(
                                 request.attempts + 1, worker.rng);
            request.has_ready_at = true;
            ++delta.retries;
          }
          to_requeue.push_back(pos);
        } else if (config_.degrade_to_cpu &&
                   target != Target::kCpuReference) {
          to_degrade.push_back(pos);
        } else {
          failures.push_back({pos, fault_error});
          ++delta.requests_failed;
        }
      }
    }
  }

  // Graceful degradation: requests out of retry budget are answered by a
  // private CPU-reference fallback — a worse (not bit-identical) answer,
  // flagged as such, instead of no answer. Not cached: emergency prices
  // must not outlive the emergency.
  if (!to_degrade.empty()) {
    if (!worker.fallback) {
      PricingAccelerator::Config fallback_config;
      fallback_config.target = Target::kCpuReference;
      fallback_config.steps = config_.steps;
      fallback_config.compute_rmse = false;
      worker.fallback =
          std::make_unique<PricingAccelerator>(std::move(fallback_config));
    }
    std::vector<finance::OptionSpec>& fallback_specs = worker.fallback_specs;
    std::vector<double>& fallback_prices = worker.fallback_prices;
    fallback_specs.clear();
    for (const std::size_t pos : to_degrade) {
      fallback_specs.push_back(batch[pos]->spec);
    }
    fallback_prices.resize(fallback_specs.size());
    worker.fallback->run_prices(fallback_specs.data(), fallback_specs.size(),
                                fallback_prices.data());
    for (std::size_t i = 0; i < to_degrade.size(); ++i) {
      completions.push_back({to_degrade[i], fallback_prices[i],
                             /*from_cache=*/false, /*degraded=*/true});
      ++delta.degraded_completions;
    }
  }

  // Accuracy-bounded brownout (DESIGN.md §2.10): under sustained overload
  // kBatch-class work is priced by a lazily-built reduced-fidelity
  // sibling — the single-precision variant where the paper implements
  // one, at brownout_steps lattice steps (default: half the configured
  // steps). Each browned quote is stamped with the calibrated RMSE of
  // that configuration. Browned prices are never cached: a reduced-
  // fidelity answer must not outlive the overload that justified it.
  if (!to_brownout.empty()) {
    if (!worker.brownout) {
      PricingAccelerator::Config brownout_config;
      brownout_config.target = brownout_target_for(target);
      brownout_config.steps =
          config_.overload.brownout_steps != 0
              ? config_.overload.brownout_steps
              : std::max<std::size_t>(2, config_.steps / 2);
      brownout_config.compute_rmse = false;
      brownout_config.compute_units = config_.compute_units;
      // Deliberately no fault plan: brownout is a capacity valve, not a
      // fault-injection subject.
      worker.brownout =
          std::make_unique<PricingAccelerator>(std::move(brownout_config));
    }
    if (!worker.has_brownout_rmse) {
      // One-time calibration: the brownout configuration against a fresh
      // fault-free full-fidelity accelerator over a fixed moneyness x
      // volatility x maturity grid (the Table II RMSE metric).
      const std::vector<finance::OptionSpec> calibration =
          brownout_calibration_specs();
      std::vector<double> reduced(calibration.size(), 0.0);
      std::vector<double> reference(calibration.size(), 0.0);
      worker.brownout->run_prices(calibration.data(), calibration.size(),
                                  reduced.data());
      PricingAccelerator::Config reference_config;
      reference_config.target = target;
      reference_config.steps = config_.steps;
      reference_config.compute_rmse = false;
      reference_config.compute_units = config_.compute_units;
      PricingAccelerator full_fidelity(std::move(reference_config));
      full_fidelity.run_prices(calibration.data(), calibration.size(),
                               reference.data());
      worker.brownout_rmse = rmse(reduced, reference);
      worker.has_brownout_rmse = true;
    }
    std::vector<finance::OptionSpec>& brownout_specs = worker.brownout_specs;
    std::vector<double>& brownout_prices = worker.brownout_prices;
    brownout_specs.clear();
    for (const std::size_t pos : to_brownout) {
      brownout_specs.push_back(batch[pos]->spec);
    }
    brownout_prices.resize(brownout_specs.size());
    worker.brownout->run_prices(brownout_specs.data(), brownout_specs.size(),
                                brownout_prices.data());
    for (std::size_t i = 0; i < to_brownout.size(); ++i) {
      completions.push_back({to_brownout[i], brownout_prices[i],
                             /*from_cache=*/false, /*degraded=*/false,
                             /*browned_out=*/true, worker.brownout_rmse});
    }
  }

  // Every outcome is decided here; request latency runs from admission to
  // this point (sink resolution below is the client's own wakeup cost).
  // The absolute deadline is enforced AGAIN at this point: a price decided
  // past its request's deadline resolves as ServiceTimeoutError — pricing
  // time counts against the deadline, not just queue wait.
  const auto decided = std::chrono::steady_clock::now();
  std::size_t completed = 0;
  for (std::size_t i = 0; i < completions.size(); ++i) {
    const Completion& done = completions[i];
    const Request& request = *batch[done.pos];
    if (request.has_deadline && deadline_expired(decided, request.deadline)) {
      failures.push_back(
          {done.pos, std::make_exception_ptr(ServiceTimeoutError(
                         "quote request expired during pricing "
                         "(absolute deadline passed)"))});
      ++delta.requests_timed_out;
    } else {
      completions[completed++] = done;  // compact in place, order kept
      ++delta.requests_completed;
      if (done.browned_out) ++delta.brownout_completions;
      // Serving attribution (router on or off): who actually answered.
      ServiceStats::bump(delta.served_by_backend, worker.index);
    }
  }
  completions.resize(completed);
  for (const Completion& done : completions) {
    delta.request_latency_ns.record(
        elapsed_ns(batch[done.pos]->admitted_at, decided));
  }
  for (const Failure& failure : failures) {
    delta.request_latency_ns.record(
        elapsed_ns(batch[failure.pos]->admitted_at, decided));
  }

  {
    const std::lock_guard<std::mutex> lock(worker.shard_mutex);
    worker.shard += delta;
  }
  // Redeliver retries/failovers before resolving this batch's outcomes so
  // surviving workers can start on them immediately. The batch slots are
  // nulled first: the instant a pointer is requeued, another worker may
  // pop and mutate it, and nothing here may touch it again.
  if (!to_requeue.empty()) {
    std::vector<Request*>& staged = worker.requeue_ptrs;
    staged.clear();
    for (const std::size_t pos : to_requeue) {
      staged.push_back(batch[pos]);
      batch[pos] = nullptr;
    }
    requeue(staged.data(), staged.size());
  }
  for (const Completion& done : completions) {
    Request* request = batch[done.pos];
    // `target` is always the backend that priced the quote: the cache key
    // pins hits to this worker's target, degradation reports the fallback.
    // routed_target preserves the router's placement for attribution —
    // after a failover or degradation the two legitimately differ.
    const Target priced_by =
        done.degraded ? Target::kCpuReference
                      : (done.browned_out ? brownout_target_for(target)
                                          : target);
    const Target routed_target = request->has_route
                                     ? config_.targets[request->routed_worker]
                                     : priced_by;
    fulfil(*request, done.price, priced_by, routed_target, done.from_cache,
           done.degraded, done.browned_out, done.accuracy_bound);
    release_request(request);
    batch[done.pos] = nullptr;
  }
  for (const Failure& failure : failures) {
    Request* request = batch[failure.pos];
    fail(*request, failure.error);
    release_request(request);
    batch[failure.pos] = nullptr;
  }
  // Belt and braces: every batch element must have been resolved or
  // requeued above; a request falling through would hang its client
  // forever, so surface the bug as a typed error instead.
  for (Request*& request : batch) {
    if (request == nullptr) continue;
    fail(*request, std::make_exception_ptr(InvariantError(
                       "pricing-service batch left a request unresolved")));
    release_request(request);
    request = nullptr;
  }

  if (tracer_ != nullptr) {
    const auto resolved_at = std::chrono::steady_clock::now();
    // Batch lifecycle on this worker's lane: the enclosing "batch" span
    // starts at the earliest admission (so queueing/linger time is the
    // visible gap before "launch") and closes once every sink resolved.
    ocl::trace::TraceEvent batch_span;
    batch_span.name = "batch";
    batch_span.category = "service";
    batch_span.start_ns = to_ns(earliest_admission);
    batch_span.dur_ns = to_ns(resolved_at) - to_ns(earliest_admission);
    batch_span.pid = trace_pid_;
    batch_span.tid = worker.index;
    batch_span.args.emplace_back("requests", std::to_string(batch.size()));
    batch_span.args.emplace_back("priced", std::to_string(to_price.size()));
    batch_span.args.emplace_back(
        "cache_hits", std::to_string(delta.cache_hits));
    batch_span.args.emplace_back(
        "timed_out", std::to_string(delta.requests_timed_out));
    tracer_->record(std::move(batch_span));

    if (!to_price.empty()) {
      ocl::trace::TraceEvent launch_span;
      launch_span.name = "launch " + to_string(target);
      launch_span.category = "service";
      launch_span.start_ns = to_ns(launch_start);
      launch_span.dur_ns = to_ns(launch_end) - to_ns(launch_start);
      launch_span.pid = trace_pid_;
      launch_span.tid = worker.index;
      launch_span.args.emplace_back("options",
                                    std::to_string(to_price.size()));
      tracer_->record(std::move(launch_span));
    }

    ocl::trace::TraceEvent resolve_span;
    resolve_span.name = "resolve";
    resolve_span.category = "service";
    resolve_span.start_ns = to_ns(decided);
    resolve_span.dur_ns = to_ns(resolved_at) - to_ns(decided);
    resolve_span.pid = trace_pid_;
    resolve_span.tid = worker.index;
    tracer_->record(std::move(resolve_span));
  }
}

ServiceStats PricingService::stats() const {
  ServiceStats total;
  total.requests_submitted = submitted_.load();
  total.requests_shed_normal = shed_normal_.load();
  total.requests_shed_batch = shed_batch_.load();
  total.admission_timeouts = admission_timeouts_.load();
  // Admission-deadline expiries are timeouts the client observed: fold
  // them into the headline counter (admission_timeouts stays readable as
  // the documented subset).
  total.requests_timed_out = total.admission_timeouts;
  {
    const std::lock_guard<std::mutex> lock(admission_hist_mutex_);
    total.admission_block_ns = admission_block_;
  }
  // Never-blocked admissions recorded only an atomic bump; fold them in
  // as zero-valued samples so count() covers every admission attempt that
  // reached the credit gate.
  total.admission_block_ns.record_many(0, admissions_unblocked_.load());
  // Merge in worker-index order; addition commutes, so totals are the same
  // regardless of which worker served which request.
  for (const auto& worker : workers_) {
    const std::lock_guard<std::mutex> lock(worker->shard_mutex);
    total += worker->shard;
  }
  return total;
}

std::size_t PricingService::queued_requests() const {
  return queue_count_.load(std::memory_order_acquire) +
         retry_count_.load(std::memory_order_acquire);
}

}  // namespace binopt::core
