// Self-tests for the benchmark's own arithmetic: the tail-percentile pick,
// span self time under nested scopes, and the metric-name rules of the
// result line. Runs every check and exits non-zero if any failed.
//
//   cmake --build <build-dir> --target perfbench_selftest
//   <build-dir>/perfbench_selftest

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "span_observer.h"
#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::cerr << __FILE__ << ":" << __LINE__ << ": EXPECT(" #cond   \
                << ") failed\n";                                      \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

std::vector<double> Range(int n) {
  // n distinct values, deliberately out of order.
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void TestMedian() {
  EXPECT(Median({}) == 0);
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
}

void TestTailPick() {
  // Fewer than 20 samples: no percentile from the median up has ten
  // samples beyond it.
  EXPECT(!PickTail(Range(19)).has_value());
  EXPECT(!PickTail({}).has_value());

  // 20 samples: only the median qualifies (rank 10, ten beyond).
  auto t = PickTail(Range(20));
  EXPECT(t.has_value() && t->percentile == 50 && t->value == 10 &&
         t->beyond == 10 && t->samples == 20);

  // 100 samples: p90 is rank 90 with ten beyond; p91 would leave nine.
  t = PickTail(Range(100));
  EXPECT(t.has_value() && t->percentile == 90 && t->value == 90 &&
         t->beyond == 10);

  // 1000 samples: p99 is rank 990 with ten beyond.
  t = PickTail(Range(1000));
  EXPECT(t.has_value() && t->percentile == 99 && t->value == 990 &&
         t->beyond == 10);

  // Non-multiple sizes use nearest rank: n = 55 gives p81 (rank
  // ceil(44.55) = 45, ten beyond); p82 has rank 46, nine beyond.
  t = PickTail(Range(55));
  EXPECT(t.has_value() && t->percentile == 81 && t->value == 45 &&
         t->beyond == 10);

  // A stricter minimum moves the pick down.
  t = PickTail(Range(100), 20);
  EXPECT(t.has_value() && t->percentile == 80 && t->beyond == 20);
}

// A scripted clock: each call returns the next stamp.
std::vector<std::int64_t> stamps;
std::size_t next_stamp = 0;
std::int64_t ScriptedNow() { return stamps.at(next_stamp++); }

void TestNestedSelfTime() {
  stamps = {0, 10, 30, 40, 45, 100, 200, 260};
  next_stamp = 0;
  SpanObserver obs(ScriptedNow);
  obs.SetPhase(SpanObserver::kExec);
  parjoin::mpc::RoundRecord round;

  obs.PushScope("reduce_by_key");  // t=0
  obs.PushScope("sort");           // t=10
  round.tuples = 7;
  obs.OnRound(round);              // charged inside sort
  obs.PopScope();                  // t=30: sort 20
  obs.PushScope("sort");           // t=40
  obs.PopScope();                  // t=45: sort 5
  round.tuples = 3;
  obs.OnRound(round);              // charged inside reduce_by_key
  obs.PopScope();                  // t=100: reduce_by_key 100
  obs.PushScope("exchange");       // t=200
  obs.PopScope();                  // t=260: exchange 60
  round.tuples = 11;
  obs.OnRound(round);              // no scope open: not attributed

  const auto* rbk = obs.Find(SpanObserver::kExec, "reduce_by_key");
  const auto* sort = obs.Find(SpanObserver::kExec, "sort");
  const auto* exch = obs.Find(SpanObserver::kExec, "exchange");
  EXPECT(rbk != nullptr && sort != nullptr && exch != nullptr);
  if (rbk == nullptr || sort == nullptr || exch == nullptr) return;
  EXPECT(rbk->calls == 1 && rbk->total_ns == 100 && rbk->self_ns == 75);
  EXPECT(rbk->outermost_ns == 100 && rbk->tuples == 3);
  EXPECT(sort->calls == 2 && sort->total_ns == 25 && sort->self_ns == 25);
  EXPECT(sort->outermost_ns == 0 && sort->tuples == 7);
  EXPECT(exch->self_ns == 60 && exch->outermost_ns == 60);
  EXPECT(obs.Find(SpanObserver::kPlan, "sort") == nullptr);
  EXPECT(obs.unbalanced() == 0 && obs.foreign_thread_calls() == 0);

  obs.Reset();
  EXPECT(obs.scopes(SpanObserver::kExec).empty());
}

void TestUnbalancedScopes() {
  stamps = {0, 0, 0};
  next_stamp = 0;
  SpanObserver obs(ScriptedNow);
  obs.PopScope();  // nothing open
  EXPECT(obs.unbalanced() == 1);
  obs.PushScope("sort");
  obs.SetPhase(SpanObserver::kPlan);  // switching with a scope open
  EXPECT(obs.unbalanced() == 3);      // + the switch + the open frame
}

void TestMetricNames() {
  EXPECT(ValidMetricName("qps"));
  EXPECT(ValidMetricName("prim.reduce_by_key.self_ms"));
  EXPECT(ValidMetricName("algo.chosen.matmul-os"));
  EXPECT(ValidMetricName("9lives"));
  EXPECT(ValidMetricName(std::string(64, 'a')));
  EXPECT(!ValidMetricName(""));
  EXPECT(!ValidMetricName(std::string(65, 'a')));
  EXPECT(!ValidMetricName("_hidden"));
  EXPECT(!ValidMetricName(".dot"));
  EXPECT(!ValidMetricName("query ms"));
  EXPECT(!ValidMetricName("ns/tuple"));
  EXPECT(!ValidMetricName("caf\xc3\xa9"));

  EXPECT(CheckMetricSet({"a", "b"}, kMaxEndToEndMetrics).empty());
  EXPECT(!CheckMetricSet({}, kMaxEndToEndMetrics).empty());
  EXPECT(!CheckMetricSet({"a", "a"}, kMaxEndToEndMetrics).empty());
  EXPECT(!CheckMetricSet({"a", "b c"}, kMaxEndToEndMetrics).empty());
  std::vector<std::string> names;
  const auto name = [](std::size_t i) {
    std::string n = "m";
    n += std::to_string(i);
    return n;
  };
  for (std::size_t i = 0; i < 16; ++i) names.push_back(name(i));
  EXPECT(CheckMetricSet(names, kMaxEndToEndMetrics).empty());
  names.push_back(name(16));
  EXPECT(!CheckMetricSet(names, kMaxEndToEndMetrics).empty());
  while (names.size() < 128) names.push_back(name(names.size()));
  EXPECT(CheckMetricSet(names, kMaxPerLayerMetrics).empty());
  names.push_back(name(128));
  EXPECT(!CheckMetricSet(names, kMaxPerLayerMetrics).empty());
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestMedian();
  perfbench::TestTailPick();
  perfbench::TestNestedSelfTime();
  perfbench::TestUnbalancedScopes();
  perfbench::TestMetricNames();
  if (perfbench::failures > 0) {
    std::cerr << perfbench::failures << " expectation(s) failed\n";
    return 1;
  }
  std::cout << "perfbench_selftest: all checks passed\n";
  return 0;
}
