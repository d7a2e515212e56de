#include "core/service/ledger.h"

#include <cstdio>
#include <cstring>

#include "common/error.h"

namespace binopt::core::service {

ClassTally& ClassTally::operator+=(const ClassTally& other) {
  issued += other.issued;
  completed += other.completed;
  shed += other.shed;
  timed_out += other.timed_out;
  failed += other.failed;
  browned_out += other.browned_out;
  parity_mismatches += other.parity_mismatches;
  return *this;
}

bool bit_identical(double a, double b) {
  return a == b && std::memcmp(&a, &b, sizeof a) == 0;
}

bool bit_identical(const finance::Greeks& a, const finance::Greeks& b) {
  return bit_identical(a.price, b.price) && bit_identical(a.delta, b.delta) &&
         bit_identical(a.gamma, b.gamma) && bit_identical(a.theta, b.theta) &&
         bit_identical(a.vega, b.vega) && bit_identical(a.rho, b.rho);
}

ServiceLedger& ServiceLedger::operator+=(const ServiceLedger& other) {
  for (std::size_t c = 0; c < kPriorityCount; ++c) {
    classes_[c] += other.classes_[c];
  }
  return *this;
}

ClassTally ServiceLedger::total() const {
  ClassTally sum;
  for (const ClassTally& tally : classes_) sum += tally;
  return sum;
}

void ServiceLedger::complete(Priority priority, const Quote& quote,
                             double reference) {
  ++(*this)[priority].completed;
  if (quote.browned_out) {
    ++(*this)[priority].browned_out;
  } else {
    expect_parity(priority, quote.price, reference);
  }
}

void ServiceLedger::complete_batch(Priority priority,
                                   std::span<const double> prices,
                                   std::span<const double> reference) {
  BINOPT_REQUIRE(reference.size() == prices.size(), "parity needs one "
                 "reference per price: ", prices.size(), " prices, ",
                 reference.size(), " references");
  complete_unchecked(priority, prices.size());
  for (std::size_t i = 0; i < prices.size(); ++i) {
    expect_parity(priority, prices[i], reference[i]);
  }
}

void ServiceLedger::complete_unchecked(Priority priority, std::uint64_t n) {
  (*this)[priority].issued += n;
  (*this)[priority].completed += n;
}

bool ServiceLedger::settle(Priority priority, std::future<Quote>& future,
                           double reference) {
  try {
    complete(priority, future.get(), reference);
    return true;
  } catch (const ServiceTimeoutError&) {
    ++(*this)[priority].timed_out;
  } catch (const std::exception&) {
    ++(*this)[priority].failed;
  }
  return false;
}

std::vector<std::string> ServiceLedger::violations(
    const ServiceStats& delta) const {
  std::vector<std::string> out;
  const auto expect = [&out](std::uint64_t got, std::uint64_t want,
                             const std::string& what) {
    if (got != want) {
      out.push_back(what + " (" + std::to_string(got) + " vs " +
                    std::to_string(want) + ")");
    }
  };
  for (std::size_t c = 0; c < kPriorityCount; ++c) {
    const ClassTally& t = classes_[c];
    expect(t.issued, t.completed + t.shed + t.timed_out + t.failed,
           std::string("class ") + to_string(static_cast<Priority>(c)) +
               ": issued != completed + shed + timed out + failed");
  }
  expect((*this)[Priority::kRealtime].shed, 0,
         "class realtime shed (realtime never sheds)");
  expect((*this)[Priority::kNormal].shed, delta.requests_shed_normal,
         "class normal: client sheds != requests_shed_normal");
  expect((*this)[Priority::kBatch].shed, delta.requests_shed_batch,
         "class batch: client sheds != requests_shed_batch");
  const ClassTally all = total();
  expect(all.issued - all.shed, delta.requests_submitted,
         "client issued - shed != requests_submitted");
  expect(all.completed, delta.requests_completed,
         "client completed != requests_completed");
  expect(all.timed_out, delta.requests_timed_out,
         "client timed out != requests_timed_out");
  expect(all.failed, delta.requests_failed,
         "client failed != requests_failed");
  expect(delta.requests_submitted,
         delta.requests_completed + delta.requests_timed_out +
             delta.requests_failed,
         "service requests_submitted != completed + timed_out + failed");
  return out;
}

bool ServiceLedger::passes(const ServiceStats& delta,
                           const char* label) const {
  bool ok = true;
  for (const std::string& violation : violations(delta)) {
    std::fprintf(stderr, "%s FAILED: request conservation violated: %s\n",
                 label, violation.c_str());
    ok = false;
  }
  const ClassTally all = total();
  if (all.parity_mismatches != 0) {
    std::fprintf(stderr,
                 "%s FAILED: %llu result(s) differ from the direct reference\n",
                 label, static_cast<unsigned long long>(all.parity_mismatches));
    ok = false;
  }
  if (all.failed != 0) {
    std::fprintf(stderr, "%s FAILED: %llu of %llu requests errored\n", label,
                 static_cast<unsigned long long>(all.failed),
                 static_cast<unsigned long long>(all.issued));
    ok = false;
  }
  return ok;
}

std::vector<finance::Greeks> direct_greeks(
    Target target, std::size_t steps,
    const std::vector<finance::OptionSpec>& book) {
  std::vector<finance::GreeksBumpSet> sets;
  sets.reserve(book.size());
  std::vector<finance::OptionSpec> legs;
  legs.reserve(4 * book.size());
  for (const finance::OptionSpec& spec : book) {
    sets.push_back(finance::GreeksBumpSet::from(spec, steps));
    legs.push_back(sets.back().vega_up);
    legs.push_back(sets.back().vega_down);
    legs.push_back(sets.back().rho_up);
    legs.push_back(sets.back().rho_down);
  }
  PricingAccelerator direct({target, steps, /*compute_rmse=*/false});
  const std::vector<double> prices = direct.run(legs).prices;
  std::vector<finance::Greeks> out;
  out.reserve(book.size());
  for (std::size_t i = 0; i < book.size(); ++i) {
    out.push_back(finance::assemble_greeks(
        finance::lattice_front_greeks(book[i], steps), sets[i],
        prices[4 * i], prices[4 * i + 1], prices[4 * i + 2],
        prices[4 * i + 3]));
  }
  return out;
}

}  // namespace binopt::core::service
