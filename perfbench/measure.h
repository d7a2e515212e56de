// The benchmark's own arithmetic, kept apart from perfbench.cpp so that
// measure_test.cpp can pin it: the percentile rule, the per-class
// conservation ledger, and the open-loop generator's schedule and lag.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A timing summarised from exact client-side samples: the median, the
/// highest percentile of {99.9, 99, 95, 90, 75} that still has at least
/// ten samples beyond it (`tail_pct` = 50 when none has), and the sample
/// count. Percentiles are nearest-rank: the value at rank ceil(q/100 * n).
struct Summary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 50.0;
  std::size_t n = 0;
};

/// Nearest rank ceil(pct/100 * n), immune to pct/100 not being exact in
/// binary (99.9/100 * 10000 must be rank 9990, not 9991).
inline std::size_t rank_of(std::size_t n, double pct) {
  return static_cast<std::size_t>(
      std::ceil(pct * static_cast<double>(n) / 100.0 - 1e-9));
}

/// Nearest-rank percentile of an ascending sample; 0 when empty.
inline double nearest_rank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank =
      std::clamp<std::size_t>(rank_of(sorted.size(), pct), 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly beyond the nearest-rank percentile `pct` of n samples.
inline std::size_t beyond(std::size_t n, double pct) {
  return n - std::min(rank_of(n, pct), n);
}

/// The highest supported percentile of the ladder, capped at `max_pct`.
inline double tail_percentile(std::size_t n, double max_pct = 99.9) {
  constexpr std::array<double, 5> kLadder{99.9, 99.0, 95.0, 90.0, 75.0};
  for (const double q : kLadder) {
    if (q <= max_pct && beyond(n, q) >= 10) return q;
  }
  return 50.0;
}

inline Summary summarize(std::vector<double> samples, double max_pct = 99.9) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  s.p50 = nearest_rank(samples, 50.0);
  s.tail_pct = tail_percentile(s.n, max_pct);
  s.tail = nearest_rank(samples, s.tail_pct);
  return s;
}

/// Median of a small set of repeated measurements (e.g. set-up times).
inline double median(std::vector<double> values) {
  return summarize(std::move(values)).p50;
}

/// Client-side outcome counts for one priority class. Every request the
/// client issues ends in exactly one bucket.
struct ClassTally {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool balanced() const {
    return issued == completed + shed + timed_out + failed;
  }
};

/// The service's own view of the same traffic (ServiceStats deltas).
struct ServiceLedger {
  std::uint64_t submitted = 0;  ///< admitted; sheds are never admitted
  std::uint64_t completed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;  ///< requests_shed_normal + requests_shed_batch
};

/// Exact conservation: every class balances on the client side, the
/// realtime class (index 0) never sheds, and the client totals agree with
/// the service's counters outcome by outcome.
inline bool conserved(const std::vector<ClassTally>& classes,
                      const ServiceLedger& service) {
  ClassTally total;
  for (const ClassTally& c : classes) {
    if (!c.balanced()) return false;
    total.issued += c.issued;
    total.completed += c.completed;
    total.shed += c.shed;
    total.timed_out += c.timed_out;
    total.failed += c.failed;
  }
  if (!classes.empty() && classes.front().shed != 0) return false;
  return service.shed == total.shed &&
         service.submitted == total.issued - total.shed &&
         service.completed == total.completed &&
         service.timed_out == total.timed_out &&
         service.failed == total.failed &&
         service.submitted ==
             service.completed + service.timed_out + service.failed;
}

/// Fixed-rate open-loop schedule: request k is due at start + k / rate.
/// Computed from k (not accumulated), so rounding never drifts.
struct OpenLoopSchedule {
  std::uint64_t start_ns = 0;
  double rate_per_s = 1.0;

  [[nodiscard]] std::uint64_t due_ns(std::uint64_t k) const {
    return start_ns + static_cast<std::uint64_t>(
                          std::llround(static_cast<double>(k) * 1e9 /
                                       rate_per_s));
  }
};

/// How late the generator sent a request: send time minus due time,
/// never negative (a request is never sent early).
inline double lag_ms(std::uint64_t due_ns, std::uint64_t sent_ns) {
  return sent_ns > due_ns ? static_cast<double>(sent_ns - due_ns) * 1e-6 : 0.0;
}

/// Verdict on one open-loop rung. A rung the generator could not keep to
/// schedule is invalid rather than passing: its latencies describe a
/// lighter load than the one named.
struct RungVerdict {
  bool valid = true;  ///< generator lag p99 within the lag limit
  bool meets = true;  ///< valid, no misses, p99 within limit, no backlog
};

/// `misses` counts shed, timed-out and failed requests; `backlog_growing`
/// is true when the rung ended with more requests outstanding than the
/// rung's own latency limit can account for.
inline RungVerdict judge_rung(double latency_p99_ms, double limit_ms,
                              std::uint64_t misses, bool backlog_growing,
                              double lag_p99_ms, double lag_limit_ms) {
  RungVerdict v;
  v.valid = lag_p99_ms <= lag_limit_ms;
  v.meets = v.valid && misses == 0 && !backlog_growing &&
            latency_p99_ms <= limit_ms;
  return v;
}

}  // namespace perfbench
