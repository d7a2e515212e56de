// The service ledger: the one place that states and checks the invariants
// every serving harness holds the PricingService to (binopt_cli
// serve-bench, chaos, sweep and greeks-bench; bench_service_throughput's
// modes).
//
//   conservation  every request a client issues ends in exactly one
//                 outcome per priority class, kRealtime never sheds, and
//                 the client's counts equal the service's counters
//                 outcome by outcome (ServiceLedger::violations);
//   parity        every completion that was not browned out is
//                 bit-identical to a direct PricingAccelerator run
//                 (bit_identical, direct_greeks).
//
// Harnesses tally on the client side, per thread if they like (tallies
// merge with +=), and hand the ledger the ServiceStats covering exactly
// the traffic they tallied. The ledger only reads; it never touches a
// service. Each harness keeps its own extra gates (chaos's recovery check,
// soak's realtime p99, sweep's epoch cache, the throughput A/B gates).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <future>
#include <span>
#include <string>
#include <vector>

#include "core/accelerator.h"
#include "core/service/overload.h"
#include "core/service/pricing_service.h"
#include "core/service/service_stats.h"
#include "finance/greeks.h"
#include "finance/option.h"

namespace binopt::core::service {

/// Client-side outcome counts for one priority class. Every issued request
/// lands in exactly one of completed / shed / timed_out / failed;
/// browned_out and parity_mismatches count subsets of completed.
struct ClassTally {
  std::uint64_t issued = 0;     ///< submissions, a retried shed included
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;       ///< ServiceOverloadError at admission
  std::uint64_t timed_out = 0;  ///< ServiceTimeoutError (any deadline site)
  std::uint64_t failed = 0;     ///< any other error
  std::uint64_t browned_out = 0;  ///< Quote::browned_out: parity-exempt
  std::uint64_t parity_mismatches = 0;

  ClassTally& operator+=(const ClassTally& other);
};

/// Exact parity: `==` AND identical bits, so +0 never matches -0 and a NaN
/// matches nothing — at least as strict as both `!=` and a bit compare.
[[nodiscard]] bool bit_identical(double a, double b);
/// bit_identical on every field of the Greeks.
[[nodiscard]] bool bit_identical(const finance::Greeks& a,
                                 const finance::Greeks& b);

class ServiceLedger {
public:
  [[nodiscard]] ClassTally& operator[](Priority priority) {
    return classes_[static_cast<std::size_t>(priority)];
  }
  [[nodiscard]] const ClassTally& operator[](Priority priority) const {
    return classes_[static_cast<std::size_t>(priority)];
  }
  ServiceLedger& operator+=(const ServiceLedger& other);
  [[nodiscard]] ClassTally total() const;

  /// Counts a parity mismatch unless `got` is bit-identical to `want`.
  template <typename T>
  void expect_parity(Priority priority, const T& got, const T& want) {
    if (!bit_identical(got, want)) ++(*this)[priority].parity_mismatches;
  }

  /// One completion of an admitted request; unless browned out, its price
  /// must be bit-identical to `reference`.
  void complete(Priority priority, const Quote& quote, double reference);
  /// `prices.size()` requests issued and completed by one batch call, each
  /// held to parity with the matching `reference` element.
  void complete_batch(Priority priority, std::span<const double> prices,
                      std::span<const double> reference);
  /// `n` requests issued and completed whose results the caller checks
  /// itself (Greeks and sweep legs).
  void complete_unchecked(Priority priority, std::uint64_t n);
  /// Resolves an admitted single-quote future: a Quote goes to complete(),
  /// ServiceTimeoutError counts as timed out, any other error as failed.
  /// True when the request completed.
  bool settle(Priority priority, std::future<Quote>& future,
              double reference);

  /// One named message per broken conservation invariant, given the
  /// service's counters over exactly the tallied traffic (a fresh
  /// service's stats(), or a stats().minus() delta). Empty when balanced.
  [[nodiscard]] std::vector<std::string> violations(
      const ServiceStats& delta) const;

  /// The harness gate: every violation, any parity mismatch and any failed
  /// request (no harness expects one; chaos's retries absorb the faults
  /// it injects), each printed to stderr as "<label> FAILED: ...". True
  /// when there is none.
  bool passes(const ServiceStats& delta, const char* label) const;

private:
  std::array<ClassTally, kPriorityCount> classes_{};
};

/// The direct Greeks reference for a book: each request's lattice front
/// and bump set, with every bump leg priced by one private
/// PricingAccelerator run on `target` — what the GreeksService must
/// reproduce bit for bit on that target.
[[nodiscard]] std::vector<finance::Greeks> direct_greeks(
    Target target, std::size_t steps,
    const std::vector<finance::OptionSpec>& book);

}  // namespace binopt::core::service
