#include "core/service/overload.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <optional>

#include "common/error.h"
#include "common/parse.h"

namespace binopt::core {

const char* to_string(Priority priority) {
  switch (priority) {
    case Priority::kRealtime: return "realtime";
    case Priority::kNormal: return "normal";
    case Priority::kBatch: return "batch";
  }
  return "unknown";
}

namespace service {

namespace {

std::uint64_t to_ns(std::chrono::steady_clock::time_point tp) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

}  // namespace

void OverloadConfig::validate() const {
  BINOPT_REQUIRE(shed_watermark >= 0.0 && shed_watermark <= 1.0,
                 "overload.shed_watermark must be a fraction of "
                 "queue_capacity in [0, 1], got ", shed_watermark);
  BINOPT_REQUIRE(sojourn_target.count() >= 0,
                 "overload.sojourn_target must be non-negative");
  BINOPT_REQUIRE(control_interval.count() > 0,
                 "overload.control_interval must be positive");
  BINOPT_REQUIRE(!brownout || enabled(),
                 "overload.brownout requires the overload layer to be "
                 "armed (a shed watermark and/or a sojourn target)");
  BINOPT_REQUIRE(brownout_steps == 0 || brownout_steps >= 2,
                 "overload.brownout_steps must be 0 (auto: half the "
                 "configured steps) or >= 2, got ", brownout_steps);
}

double parse_shed_watermark(const char* text) {
  BINOPT_REQUIRE(text != nullptr, "null shed watermark");
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text, &end);
  BINOPT_REQUIRE(end != text && *end == '\0' && errno == 0 &&
                     parsed > 0.0 && parsed <= 1.0,
                 "BINOPT_SERVICE_SHED_WATERMARK must be a fraction in "
                 "(0, 1], got '", text, "'");
  return parsed;
}

std::chrono::microseconds parse_sojourn_target_us(const char* text) {
  BINOPT_REQUIRE(text != nullptr, "null sojourn target");
  const std::optional<std::uint64_t> parsed =
      parse_unsigned(text, 1, 60'000'000);
  BINOPT_REQUIRE(parsed.has_value(),
                 "BINOPT_SERVICE_SOJOURN_TARGET_US must be a positive "
                 "integer of microseconds (at most 60s), got '", text, "'");
  return std::chrono::microseconds{static_cast<std::int64_t>(*parsed)};
}

void OverloadConfig::apply_env() {
  if (shed_watermark == 0.0) {
    if (const char* env = std::getenv("BINOPT_SERVICE_SHED_WATERMARK")) {
      shed_watermark = parse_shed_watermark(env);
    }
  }
  if (sojourn_target.count() == 0) {
    if (const char* env = std::getenv("BINOPT_SERVICE_SOJOURN_TARGET_US")) {
      sojourn_target = parse_sojourn_target_us(env);
    }
  }
}

PriorityMix parse_priority_mix(const std::string& text) {
  const auto fail = [&text]() {
    BINOPT_REQUIRE(false,
                   "--priority-mix must be three non-negative integer "
                   "percentages 'realtime/normal/batch' summing to 100, "
                   "got '", text, "'");
  };
  unsigned parts[3] = {0, 0, 0};
  std::size_t pos = 0;
  for (int i = 0; i < 3; ++i) {
    if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') fail();
    unsigned long value = 0;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      value = value * 10 + static_cast<unsigned long>(text[pos] - '0');
      if (value > 100) fail();
      ++pos;
    }
    parts[i] = static_cast<unsigned>(value);
    if (i < 2) {
      if (pos >= text.size() || text[pos] != '/') fail();
      ++pos;
    }
  }
  if (pos != text.size() || parts[0] + parts[1] + parts[2] != 100) fail();
  return PriorityMix{parts[0], parts[1], parts[2]};
}

OverloadController::OverloadController(const OverloadConfig& config,
                                       std::size_t queue_capacity)
    : capacity_(queue_capacity),
      // With only a sojourn target configured the base is full capacity:
      // shedding then engages purely from measured delay, tightening
      // downward from "never shed".
      base_(config.shed_watermark > 0.0
                ? std::max<std::size_t>(
                      1, static_cast<std::size_t>(
                             config.shed_watermark *
                                 static_cast<double>(queue_capacity) +
                             0.5))
                : queue_capacity),
      floor_(std::max<std::size_t>(1, queue_capacity / 16)),
      target_ns_(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              config.sojourn_target)
              .count())),
      interval_ns_(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              config.control_interval)
              .count())),
      watermark_(base_) {
  if (base_ > capacity_) base_ = capacity_;
  if (floor_ > base_) floor_ = base_;
  watermark_.store(base_, std::memory_order_release);
}

void OverloadController::observe(std::uint64_t sojourn_ns,
                                 std::chrono::steady_clock::time_point now) {
  if (target_ns_ == 0) return;  // static watermark only; nothing adapts
  // Track the interval minimum: one fast-drained request proves the
  // standing queue cleared (CoDel's insight), so the minimum — not a
  // percentile — is what gates tightening.
  std::uint64_t seen = interval_min_ns_.load(std::memory_order_relaxed);
  while (sojourn_ns < seen &&
         !interval_min_ns_.compare_exchange_weak(seen, sojourn_ns,
                                                 std::memory_order_relaxed)) {
  }
  const std::uint64_t now_ns = to_ns(now);
  std::uint64_t end = interval_end_ns_.load(std::memory_order_acquire);
  if (end == 0) {
    // First observation ever: open the first interval, adjust nothing.
    interval_end_ns_.compare_exchange_strong(end, now_ns + interval_ns_,
                                             std::memory_order_acq_rel);
    return;
  }
  if (now_ns < end) return;
  // Exactly one worker wins the rollover CAS and applies the adjustment.
  if (!interval_end_ns_.compare_exchange_strong(end, now_ns + interval_ns_,
                                                std::memory_order_acq_rel)) {
    return;
  }
  const std::uint64_t interval_min =
      interval_min_ns_.exchange(~std::uint64_t{0}, std::memory_order_acq_rel);
  const std::size_t current = watermark_.load(std::memory_order_relaxed);
  if (interval_min != ~std::uint64_t{0} && interval_min > target_ns_) {
    // Even the luckiest request waited longer than the target for a whole
    // interval: a standing queue. Tighten multiplicatively.
    const std::size_t cut = std::max<std::size_t>(1, current / 4);
    const std::size_t next =
        current > floor_ + cut ? current - cut : floor_;
    watermark_.store(next, std::memory_order_release);
    overloaded_.store(true, std::memory_order_release);
  } else {
    // Delay back under target (or an idle interval): relax additively
    // toward the configured base; declare the overload over only once
    // fully relaxed, so brownout does not flap at the boundary.
    const std::size_t grow = std::max<std::size_t>(1, base_ / 8);
    const std::size_t next = std::min(base_, current + grow);
    watermark_.store(next, std::memory_order_release);
    if (next >= base_) overloaded_.store(false, std::memory_order_release);
  }
}

}  // namespace service
}  // namespace binopt::core
