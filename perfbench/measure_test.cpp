// Tests of the benchmark's own arithmetic (measure.h). Exit status is the
// number of failed checks.
#include <cstdio>
#include <vector>

#include "measure.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // n..1, unsorted on purpose
}

void percentile_rule() {
  using perfbench::summarize;
  // Nearest rank: the value at rank ceil(q/100 * n).
  check(summarize(ramp(100)).p50 == 50.0, "median of 1..100 is 50");
  check(summarize(ramp(101)).p50 == 51.0, "median of 1..101 is 51");
  // The tail is the highest ladder percentile with >= 10 samples beyond.
  const auto s1000 = summarize(ramp(1000));
  check(s1000.tail_pct == 99.0 && s1000.tail == 990.0, "n=1000 -> p99 = 990");
  check(s1000.n == 1000, "sample count reported");
  check(summarize(ramp(999)).tail_pct == 95.0, "n=999 cannot support p99");
  check(summarize(ramp(10000)).tail_pct == 99.9, "n=10000 supports p99.9");
  check(summarize(ramp(10000), 99.0).tail_pct == 99.0, "cap at p99");
  check(summarize(ramp(200)).tail_pct == 95.0, "n=200 -> p95");
  check(summarize(ramp(100)).tail_pct == 90.0, "n=100 -> p90");
  check(summarize(ramp(40)).tail_pct == 75.0, "n=40 -> p75");
  check(summarize(ramp(19)).tail_pct == 50.0, "n=19 -> only the median");
  check(summarize({}).n == 0 && summarize({}).p50 == 0.0, "empty sample");
  check(perfbench::beyond(1000, 99.0) == 10, "10 samples beyond p99 of 1000");
  check(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "median of three");
}

void conservation_ledger() {
  using perfbench::ClassTally;
  using perfbench::ServiceLedger;
  std::vector<ClassTally> classes(3);
  classes[0] = {10, 9, 0, 1, 0};
  classes[1] = {20, 15, 4, 1, 0};
  classes[2] = {30, 20, 8, 1, 1};
  ServiceLedger svc{48, 44, 3, 1, 12};
  check(perfbench::conserved(classes, svc), "balanced ledger conserves");

  auto lost = classes;
  lost[1].completed -= 1;  // a request vanished on the client side
  check(!perfbench::conserved(lost, svc), "a lost request breaks conservation");

  auto svc_off = svc;
  svc_off.completed -= 1;
  svc_off.timed_out += 1;  // service books a timeout the client saw complete
  check(!perfbench::conserved(classes, svc_off), "client/service disagree");

  auto rt_shed = classes;
  rt_shed[0] = {10, 8, 1, 1, 0};
  rt_shed[2].shed -= 1;
  rt_shed[2].completed += 1;
  ServiceLedger svc_rt{48, 44, 3, 1, 12};
  check(!perfbench::conserved(rt_shed, svc_rt), "realtime never sheds");

  auto svc_sum = svc;
  svc_sum.submitted += 1;
  check(!perfbench::conserved(classes, svc_sum), "service must balance too");
}

void generator_lag() {
  perfbench::OpenLoopSchedule s;
  s.start_ns = 1'000'000;
  s.rate_per_s = 3000.0;  // period 333333.33 ns: exercises rounding
  check(s.due_ns(0) == 1'000'000, "first request due at start");
  check(s.due_ns(3) == 2'000'000, "three periods = 1 ms");
  check(s.due_ns(3000) == 1'001'000'000, "no drift over a second");
  check(s.due_ns(1) == 1'333'333, "a period rounds to the nearest ns");
  check(perfbench::lag_ms(1'000'000, 1'500'000) == 0.5, "lag in ms");
  check(perfbench::lag_ms(2'000'000, 1'500'000) == 0.0, "early is zero lag");

  auto v = perfbench::judge_rung(4.0, 5.0, 0, false, 0.5, 1.0);
  check(v.valid && v.meets, "rung within limits meets");
  v = perfbench::judge_rung(6.0, 5.0, 0, false, 0.5, 1.0);
  check(v.valid && !v.meets, "p99 over the limit misses");
  v = perfbench::judge_rung(4.0, 5.0, 1, false, 0.5, 1.0);
  check(!v.meets, "a shed or failed request is a miss");
  v = perfbench::judge_rung(4.0, 5.0, 0, true, 0.5, 1.0);
  check(!v.meets, "a growing backlog misses");
  v = perfbench::judge_rung(4.0, 5.0, 0, false, 2.0, 1.0);
  check(!v.valid && !v.meets, "a late generator makes the rung invalid");
}

}  // namespace

int main() {
  percentile_rule();
  conservation_ledger();
  generator_lag();
  if (failures == 0) std::printf("perfbench arithmetic: all checks passed\n");
  return failures;
}
