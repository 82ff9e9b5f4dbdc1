// The benchmark's traced-run observer. It plugs into the simulator's
// read-only mpc::RoundObserver seam (Cluster::SetObserver,
// ServerOptions::observer) and turns the primitives' scope labels into
// spans: every PushScope/PopScope pair is stamped with a clock, giving each
// scope its total time and its self time (total minus the time its child
// scopes cover). Charged-round tuples are attributed to the innermost open
// scope; rounds charged with no scope open are not counted. Spans that
// close with no enclosing scope are "outermost"; the benchmark subtracts
// their time from the algorithm's wall time to get the local compute
// between charged rounds.
//
// Spans are kept as per-scope aggregates in memory, split by the phase the
// benchmark declares (planning vs execution), and read out when a run
// ends.

#ifndef PERFBENCH_SPAN_OBSERVER_H_
#define PERFBENCH_SPAN_OBSERVER_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "parjoin/mpc/observer.h"

namespace perfbench {

inline std::int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanObserver final : public parjoin::mpc::RoundObserver {
 public:
  enum Phase { kPlan = 0, kExec = 1, kNumPhases = 2 };

  struct ScopeStats {
    std::string name;
    std::int64_t calls = 0;
    std::int64_t self_ns = 0;
    std::int64_t total_ns = 0;
    std::int64_t tuples = 0;      // charged while this scope was innermost
    std::int64_t outermost_ns = 0;  // total_ns of spans with no parent
  };

  using ClockFn = std::int64_t (*)();

  explicit SpanObserver(ClockFn now = SteadyNowNs)
      : now_(now), owner_(std::this_thread::get_id()) {}

  SpanObserver(const SpanObserver&) = delete;
  SpanObserver& operator=(const SpanObserver&) = delete;

  // Phases switch only between queries, with no scope open.
  void SetPhase(Phase phase) {
    if (!stack_.empty()) unbalanced_ += 1;
    phase_ = phase;
  }

  // Drops every aggregate (e.g. those of a warm-up pass).
  void Reset() {
    for (auto& v : scopes_) v.clear();
  }

  void OnRound(const parjoin::mpc::RoundRecord& record) override {
    CheckThread();
    if (!stack_.empty()) Stats(stack_.back().scope).tuples += record.tuples;
  }

  void OnEvent(const char*, int, const std::string&) override {}

  void PushScope(const char* name) override {
    CheckThread();
    stack_.push_back(Frame{Find(name), now_(), 0});
  }

  void PopScope() override {
    CheckThread();
    if (stack_.empty()) {
      unbalanced_ += 1;
      return;
    }
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = now_() - frame.start_ns;
    ScopeStats& s = Stats(frame.scope);
    s.calls += 1;
    s.total_ns += duration;
    s.self_ns += duration - frame.child_ns;
    if (stack_.empty()) {
      s.outermost_ns += duration;
    } else {
      stack_.back().child_ns += duration;
    }
  }

  // Per-scope aggregates for one phase, in first-seen order.
  const std::vector<ScopeStats>& scopes(Phase phase) const {
    return scopes_[phase];
  }
  const ScopeStats* Find(Phase phase, const char* name) const {
    for (const ScopeStats& s : scopes_[phase]) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }

  // Contract violations the benchmark treats as fatal: a callback from a
  // thread other than the one that made the observer, or a PopScope with
  // no open scope. Both would make the span arithmetic meaningless.
  std::int64_t foreign_thread_calls() const { return foreign_thread_calls_; }
  std::int64_t unbalanced() const {
    return unbalanced_ + static_cast<std::int64_t>(stack_.size());
  }

 private:
  struct Frame {
    int scope = 0;  // index into scopes_[phase_] at push time
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
  };

  int Find(const char* name) {
    std::vector<ScopeStats>& v = scopes_[phase_];
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (std::strcmp(v[i].name.c_str(), name) == 0) {
        return static_cast<int>(i);
      }
    }
    v.push_back(ScopeStats{name});
    return static_cast<int>(v.size()) - 1;
  }

  // Frames index the phase that was current when they opened; the
  // benchmark only switches phases with no scope open.
  ScopeStats& Stats(int scope) {
    return scopes_[phase_][static_cast<std::size_t>(scope)];
  }

  void CheckThread() {
    if (std::this_thread::get_id() != owner_) foreign_thread_calls_ += 1;
  }

  ClockFn now_;
  std::thread::id owner_;
  Phase phase_ = kExec;
  std::vector<Frame> stack_;
  std::vector<ScopeStats> scopes_[kNumPhases];
  std::int64_t foreign_thread_calls_ = 0;
  std::int64_t unbalanced_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_OBSERVER_H_
