// The service ledger (src/core/service/ledger.h): per-class conservation
// against a ServiceStats delta, exact parity, tally merging, future
// settlement, and the direct Greeks reference.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <limits>
#include <string>
#include <vector>

#include "core/service/ledger.h"
#include "finance/greeks.h"
#include "finance/workload.h"

namespace binopt::core::service {
namespace {

constexpr Priority kClasses[] = {Priority::kRealtime, Priority::kNormal,
                                 Priority::kBatch};

/// A client tally and the service counters of the same traffic, balanced.
struct Books {
  ServiceLedger ledger;
  ServiceStats stats;
};

Books balanced() {
  Books b;
  b.ledger[Priority::kRealtime] = {10, 9, 0, 1, 0, 0, 0};
  b.ledger[Priority::kNormal] = {20, 15, 3, 1, 1, 2, 0};
  b.ledger[Priority::kBatch] = {30, 20, 8, 1, 1, 5, 0};
  b.stats.requests_submitted = 49;  // 60 issued - 11 shed
  b.stats.requests_completed = 44;
  b.stats.requests_timed_out = 3;
  b.stats.requests_failed = 2;
  b.stats.requests_shed_normal = 3;
  b.stats.requests_shed_batch = 8;
  return b;
}

bool names(const std::vector<std::string>& violations,
           const std::string& needle) {
  for (const std::string& v : violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

std::string joined(const std::vector<std::string>& violations) {
  std::string out;
  for (const std::string& v : violations) out += "\n  " + v;
  return out;
}

TEST(ServiceLedger, BalancedBooksHaveNoViolations) {
  const Books b = balanced();
  EXPECT_TRUE(b.ledger.violations(b.stats).empty())
      << joined(b.ledger.violations(b.stats));
}

TEST(ServiceLedger, EveryClientOutcomeOffByOneUnbalancesItsClass) {
  using Field = std::uint64_t ClassTally::*;
  const Field fields[] = {&ClassTally::issued, &ClassTally::completed,
                          &ClassTally::shed, &ClassTally::timed_out,
                          &ClassTally::failed};
  for (const Priority cls : kClasses) {
    for (const Field field : fields) {
      Books b = balanced();
      ++(b.ledger[cls].*field);
      const auto v = b.ledger.violations(b.stats);
      EXPECT_TRUE(names(v, std::string("class ") + to_string(cls) +
                               ": issued != completed"))
          << to_string(cls) << joined(v);
    }
  }
}

TEST(ServiceLedger, EveryServiceCounterOffByOneIsNamed) {
  using Field = std::uint64_t ServiceStats::*;
  const std::pair<Field, const char*> counters[] = {
      {&ServiceStats::requests_submitted, "requests_submitted"},
      {&ServiceStats::requests_completed, "requests_completed"},
      {&ServiceStats::requests_timed_out, "requests_timed_out"},
      {&ServiceStats::requests_failed, "requests_failed"},
      {&ServiceStats::requests_shed_normal, "requests_shed_normal"},
      {&ServiceStats::requests_shed_batch, "requests_shed_batch"},
  };
  for (const auto& [field, name] : counters) {
    Books b = balanced();
    ++(b.stats.*field);
    const auto v = b.ledger.violations(b.stats);
    EXPECT_TRUE(names(v, name)) << name << joined(v);
  }
  // The service's own books: submitted == completed + timed_out + failed.
  Books b = balanced();
  ++b.stats.requests_completed;
  EXPECT_TRUE(names(b.ledger.violations(b.stats),
                    "service requests_submitted != completed"));
}

TEST(ServiceLedger, ShedsAreMatchedPerClassNotInTotal) {
  // Moving one shed from normal to batch keeps every total equal.
  Books b = balanced();
  ++b.stats.requests_shed_normal;
  --b.stats.requests_shed_batch;
  const auto v = b.ledger.violations(b.stats);
  EXPECT_TRUE(names(v, "class normal: client sheds")) << joined(v);
  EXPECT_TRUE(names(v, "class batch: client sheds")) << joined(v);
}

TEST(ServiceLedger, RealtimeNeverSheds) {
  Books b = balanced();
  ++b.ledger[Priority::kRealtime].issued;
  ++b.ledger[Priority::kRealtime].shed;
  const auto v = b.ledger.violations(b.stats);
  EXPECT_TRUE(names(v, "realtime never sheds")) << joined(v);
  EXPECT_FALSE(names(v, "class realtime: issued")) << joined(v);
}

TEST(ServiceLedger, PerThreadTalliesMergeToTheWhole) {
  const Books whole = balanced();
  ServiceLedger a;
  ServiceLedger b;
  for (const Priority cls : kClasses) {
    a[cls] = whole.ledger[cls];
    a[cls].completed -= 1;
    a[cls].issued -= 1;
    b[cls].completed = 1;
    b[cls].issued = 1;
  }
  a += b;
  EXPECT_TRUE(a.violations(whole.stats).empty())
      << joined(a.violations(whole.stats));
  EXPECT_EQ(a.total().issued, 60u);
  EXPECT_EQ(a.total().browned_out, 7u);
}

TEST(ServiceLedger, GateAlsoRejectsParityMismatchesAndFailures) {
  ServiceLedger ledger;
  ServiceStats stats;
  ledger.complete_unchecked(Priority::kNormal, 4);
  stats.requests_submitted = 4;
  stats.requests_completed = 4;
  EXPECT_TRUE(ledger.passes(stats, "test"));
  ledger.expect_parity(Priority::kNormal, 1.0, std::nextafter(1.0, 2.0));
  EXPECT_FALSE(ledger.passes(stats, "test"));

  // Balanced books with a failed request: conserved, but not a pass.
  ServiceLedger failing;
  failing[Priority::kNormal] = {1, 0, 0, 0, 1, 0, 0};
  ServiceStats failed;
  failed.requests_submitted = 1;
  failed.requests_failed = 1;
  EXPECT_TRUE(failing.violations(failed).empty());
  EXPECT_FALSE(failing.passes(failed, "test"));
}

TEST(BitIdentical, NeedsEqualValueAndEqualBits) {
  EXPECT_TRUE(bit_identical(1.5, 1.5));
  EXPECT_FALSE(bit_identical(1.5, std::nextafter(1.5, 2.0)));
  // == alone would accept +0 against -0.
  EXPECT_FALSE(bit_identical(0.0, -0.0));
  EXPECT_FALSE(bit_identical(-0.0, 0.0));
  EXPECT_TRUE(bit_identical(-0.0, -0.0));
  // A bit compare alone would accept a NaN against the same NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(bit_identical(nan, nan));

  finance::Greeks a{1.0, 0.5, 0.01, -0.02, 0.3, 0.0};
  finance::Greeks b = a;
  EXPECT_TRUE(bit_identical(a, b));
  b.rho = -0.0;
  EXPECT_FALSE(bit_identical(a, b));
  b = a;
  b.theta = std::nextafter(a.theta, 0.0);
  EXPECT_FALSE(bit_identical(a, b));
}

TEST(ServiceLedger, CompletionsCountParityExceptBrownedOut) {
  ServiceLedger ledger;
  Quote quote;
  quote.price = 2.0;
  ledger.complete(Priority::kNormal, quote, 2.0);
  ledger.complete(Priority::kNormal, quote, std::nextafter(2.0, 3.0));
  quote.browned_out = true;
  ledger.complete(Priority::kBatch, quote, 99.0);  // exempt by contract
  const std::vector<double> prices{1.0, 0.0};
  const std::vector<double> reference{1.0, -0.0};
  ledger.complete_batch(Priority::kNormal, prices, reference);

  EXPECT_EQ(ledger[Priority::kNormal].completed, 4u);
  EXPECT_EQ(ledger[Priority::kNormal].issued, 2u);  // batch issues itself
  EXPECT_EQ(ledger[Priority::kNormal].parity_mismatches, 2u);
  EXPECT_EQ(ledger[Priority::kBatch].browned_out, 1u);
  EXPECT_EQ(ledger[Priority::kBatch].parity_mismatches, 0u);
}

TEST(ServiceLedger, SettleSortsEveryOutcome) {
  ServiceLedger ledger;
  std::promise<Quote> ok;
  std::promise<Quote> late;
  std::promise<Quote> broken;
  auto f_ok = ok.get_future();
  auto f_late = late.get_future();
  auto f_broken = broken.get_future();
  ok.set_value(Quote{3.0});
  late.set_exception(std::make_exception_ptr(ServiceTimeoutError("late")));
  broken.set_exception(std::make_exception_ptr(Error("device lost")));

  EXPECT_TRUE(ledger.settle(Priority::kRealtime, f_ok, 3.0));
  EXPECT_FALSE(ledger.settle(Priority::kRealtime, f_late, 3.0));
  EXPECT_FALSE(ledger.settle(Priority::kRealtime, f_broken, 3.0));
  const ClassTally& rt = ledger[Priority::kRealtime];
  EXPECT_EQ(rt.completed, 1u);
  EXPECT_EQ(rt.timed_out, 1u);
  EXPECT_EQ(rt.failed, 1u);
  EXPECT_EQ(rt.parity_mismatches, 0u);
}

TEST(DirectGreeks, CpuReferenceCollapsesToBinomialGreeks) {
  constexpr std::size_t kSteps = 32;
  const auto book = finance::make_curve_batch(6);
  const std::vector<finance::Greeks> direct =
      direct_greeks(Target::kCpuReference, kSteps, book);
  ASSERT_EQ(direct.size(), book.size());
  for (std::size_t i = 0; i < book.size(); ++i) {
    EXPECT_TRUE(bit_identical(direct[i],
                              finance::binomial_greeks(book[i], kSteps)))
        << "request " << i;
  }
}

}  // namespace
}  // namespace binopt::core::service
