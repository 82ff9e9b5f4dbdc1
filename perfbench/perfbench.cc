// perfbench: the repo benchmark. Runs one workload as a single closed-loop
// client (the next query is sent only after the previous one returns),
// checks every output against the reference evaluator, and prints the
// workload's metrics as one JSON line.
//
//   perfbench --workload <matmul|serve-mix|tree-faulted> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with no observer attached.
// --trace 1 runs the workload twice, untraced then traced with a
// SpanObserver (span_observer.h) on every cluster, and reports the
// per-layer metrics plus the tracing overhead. README.md lists every
// metric, its unit, and which end-to-end metric it should move.
//
// A run: set-up (generate and load the relations) repeated kSetupRepeats
// times, reference results, then per measured phase one untimed warm-up
// pass of the workload's schedule followed by whole passes until the time
// is up. Measured passes run on one thread, and a query's latency is the
// client thread's CPU time: on a shared VM, hypervisor steal can double a
// run's wall time while its CPU time stays put. Every reported time is
// scaled to a reference host speed measured by a probe (see HostProbe).
// The simulated ledger of every query must repeat exactly wherever the
// same query runs again (later passes, 1 vs 2 threads, traced vs
// untraced); a mismatch fails the run.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "parjoin/algorithms/reference.h"
#include "parjoin/common/hash.h"
#include "parjoin/common/parallel_for.h"
#include "parjoin/common/random.h"
#include "parjoin/common/stopwatch.h"
#include "parjoin/plan/executor.h"
#include "parjoin/serve/server.h"
#include "parjoin/workload/generators.h"
#include "span_observer.h"
#include "stats.h"

namespace perfbench {
namespace {

using parjoin::Relation;
using parjoin::Schema;
using parjoin::Stopwatch;
using parjoin::TreeInstance;
using S = parjoin::CountingSemiring;
namespace mpc = parjoin::mpc;
namespace plan = parjoin::plan;
namespace serve = parjoin::serve;

// Set-up repeats until both bounds are met; setup_s is the median.
constexpr int kSetupRepeats = 10;
constexpr double kSetupMinSeconds = 1.0;
// Minimum latency samples per measured phase: enough for a tail pick
// (stats.h) at or above the median.
constexpr std::int64_t kMinSamples = 30;

// --- per-query results -------------------------------------------------------

// What must repeat exactly whenever the same query runs again.
struct Ledger {
  std::int64_t max_load = 0;
  std::int64_t rounds = 0;
  std::int64_t total_comm = 0;
  std::int64_t critical_path = 0;
  std::int64_t recovery_comm = 0;
  std::int64_t plan_rounds = -1;  // -1: depends on plan-cache state
  int chosen = -1;

  bool operator==(const Ledger&) const = default;

  std::string ToString() const {
    return "load=" + std::to_string(max_load) +
           " rounds=" + std::to_string(rounds) +
           " comm=" + std::to_string(total_comm) +
           " critical_path=" + std::to_string(critical_path) +
           " recovery_comm=" + std::to_string(recovery_comm) +
           " plan_rounds=" + std::to_string(plan_rounds) +
           " chosen=" + std::to_string(chosen);
  }
};

Ledger ExecutionLedger(const plan::PhysicalPlan& plan) {
  const mpc::Cluster::Stats& x = plan.execution_stats;
  Ledger l;
  l.max_load = x.max_load;
  l.rounds = x.rounds;
  l.total_comm = x.total_comm;
  l.critical_path = x.critical_path;
  l.recovery_comm = x.recovery_comm;
  l.chosen = static_cast<int>(plan.chosen);
  return l;
}

struct QueryResult {
  bool ok = false;       // the program returned an ok status
  bool correct = false;  // ... and the result equals the reference
  std::string error;
  Ledger ledger;
  std::int64_t plan_rounds = 0;  // planner rounds charged (0 on cache hit)
  double latency_ms = 0;  // wall time
  double cpu_ms = 0;      // the client thread's CPU time, same interval
  double plan_ms = 0;  // planner time (0 on a plan-cache hit)
  double exec_ms = 0;  // plan::TryExecuteWithRecovery wall time
  int attempts = 1;
  bool cache_lookup = false;
  bool cache_hit = false;
  double lookup_ms = 0;  // plan-cache lookup, hit or miss (serve-mix)
};

// CPU time of the calling thread. The measured passes run on one thread
// that never blocks or does I/O, so a query's CPU time is its wall time
// minus hypervisor steal and preemption by other processes.
double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// --- host speed --------------------------------------------------------------

// The shared VM changes speed for minutes at a time: unscaled tree-faulted
// runs read 48-63 qps in one ten-run set and 80-85 qps in the next, and
// fixed kernels outside the program sped up with it. CPU time does not
// remove this: it is the host's clock and contention, not steal. So every
// time the benchmark reports is scaled to a reference host speed:
//
//   reported = measured * kProbeReferenceMs / probe_ms
//
// where probe_ms is the median CPU time of the probe run next to the
// measurement. The probe calls no parjoin code, so a change to the program
// moves the reported times and leaves the scale alone.
constexpr double kProbeReferenceMs = 14.0;
// Probes after each measured pass; one follows each set-up.
constexpr int kProbesPerPass = 5;

// The probe kernel, in two parts like the relation operators: sort 32k
// seeded pairs and sum them by key in an ordered map, then sum 256k seeded
// values into a hash map of 64k keys. About 14 ms of CPU time on the
// development VM at its base speed (the sum of the parts' times there),
// which kProbeReferenceMs is set to.
// Between the host's slow and fast speeds the sort part alone gained
// 1.37-1.58x where the program gained 1.53-1.69x, and the hash part
// 1.61-1.76x, so their sum lands between the two.
double HostProbeMs() {
  const double cpu0 = ThreadCpuMs();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::pair<std::uint64_t, std::uint64_t>> v(1 << 15);
  for (auto& e : v) {
    const std::uint64_t r = next();
    e = {r % 5000, r};
  }
  std::sort(v.begin(), v.end());
  std::map<std::uint64_t, std::uint64_t> sorted_sums;
  for (const auto& [key, value] : v) sorted_sums[key] += value;
  std::unordered_map<std::uint64_t, std::uint64_t> hashed_sums;
  for (int i = 0; i < (1 << 18); ++i) {
    const std::uint64_t r = next();
    hashed_sums[r % 65536] += r;
  }
  volatile std::size_t keep = sorted_sums.size() + hashed_sums.size();
  (void)keep;
  return ThreadCpuMs() - cpu0;
}

double MedianProbeMs(int probes) {
  std::vector<double> times;
  for (int i = 0; i < probes; ++i) times.push_back(HostProbeMs());
  return Median(std::move(times));
}

struct CacheCounters {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
};

// --- workloads ---------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  // Generates and loads the relations from the seed: the timed set-up.
  virtual void Setup(std::uint64_t seed) = 0;
  // Reference results for every distinct query (untimed).
  virtual void ComputeReferences() = 0;
  // One pass of the closed-loop schedule, as query indices.
  virtual const std::vector<int>& Pass() const = 0;
  // Before each measured phase; `obs` is null for an untraced phase.
  virtual void BeginPhase(SpanObserver* obs) = 0;
  // Runs one query to completion.
  virtual QueryResult Run(int query, SpanObserver* obs) = 0;
  // ParallelFor threads of the warm-up pass (measured passes run on 1).
  virtual int warmup_threads() const { return 1; }
  virtual bool has_server() const { return false; }
  virtual CacheCounters cache() const { return {}; }
};

// matmul and tree-faulted: a fresh PlanQuery and TryExecuteWithRecovery
// per query on a fresh cluster, called directly (no server, no cache).
struct DirectQuery {
  TreeInstance<S> instance;
  Relation<S> reference;
  std::uint64_t cluster_seed = 0;
  plan::ExecutionOptions exec;
};

class DirectWorkload final : public Workload {
 public:
  using Generator = std::function<std::vector<DirectQuery>(std::uint64_t)>;

  DirectWorkload(int p, int warmup_threads, Generator generate)
      : p_(p), warmup_threads_(warmup_threads),
        generate_(std::move(generate)) {}

  void Setup(std::uint64_t seed) override {
    queries_ = generate_(seed);
    pass_.clear();
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      pass_.push_back(static_cast<int>(i));
    }
  }

  void ComputeReferences() override {
    for (DirectQuery& q : queries_) {
      q.reference = parjoin::EvaluateReference(q.instance);
    }
  }

  const std::vector<int>& Pass() const override { return pass_; }
  void BeginPhase(SpanObserver*) override {}
  int warmup_threads() const override { return warmup_threads_; }

  QueryResult Run(int index, SpanObserver* obs) override {
    DirectQuery& q = queries_[static_cast<std::size_t>(index)];
    TreeInstance<S> instance = q.instance;  // the query consumes its input
    QueryResult r;
    mpc::Cluster cluster(p_, q.cluster_seed);
    cluster.SetObserver(obs);

    const double cpu0 = ThreadCpuMs();
    Stopwatch total;
    if (obs != nullptr) obs->SetPhase(SpanObserver::kPlan);
    Stopwatch sw;
    plan::PhysicalPlan plan = plan::PlanQuery(cluster, instance);
    r.plan_ms = sw.ElapsedMillis();
    plan.planning_stats = cluster.stats();
    cluster.ResetStats();

    if (obs != nullptr) obs->SetPhase(SpanObserver::kExec);
    sw.Restart();
    parjoin::StatusOr<parjoin::DistRelation<S>> result =
        plan::TryExecuteWithRecovery(cluster, std::move(instance), q.exec,
                                     &plan);
    r.exec_ms = sw.ElapsedMillis();
    plan.execution_stats = cluster.stats();
    Relation<S> local;
    if (result.ok()) {
      local = result->ToLocal();
      local.Normalize();
    }
    r.latency_ms = total.ElapsedMillis();
    r.cpu_ms = ThreadCpuMs() - cpu0;

    r.ok = result.ok();
    if (!r.ok) r.error = result.status().ToString();
    r.correct = r.ok && local == q.reference;
    r.ledger = ExecutionLedger(plan);
    r.ledger.plan_rounds = plan.planning_stats.rounds;
    r.plan_rounds = plan.planning_stats.rounds;
    r.attempts = plan.recovery.attempts;
    return r;
  }

 private:
  int p_;
  int warmup_threads_;
  Generator generate_;
  std::vector<DirectQuery> queries_;
  std::vector<int> pass_;
};

// Table 1 sparse matmul: block instances with N1 = N2 ~ 20k and OUT swept
// over {2048, 8192, 32768}, p = 64. The measured passes run on 1 thread so
// CPU time stands for latency; the warm-up pass runs 2 ParallelFor threads,
// so every run also checks the ledger at 1 vs 2 threads. The
// block geometry and the clusters' hash seeds are fixed, so the ledger is
// the same for every seed; the seed draws the annotations.
std::unique_ptr<Workload> MakeMatMul() {
  constexpr int kP = 64;
  return std::make_unique<DirectWorkload>(
      kP, /*warmup_threads=*/2, [](std::uint64_t seed) {
        std::vector<DirectQuery> queries;
        const mpc::Cluster layout(kP);
        const std::int64_t outs[] = {2048, 8192, 32768};
        for (std::uint64_t k = 0; k < 3; ++k) {
          const auto cfg = parjoin::MatMulBlockConfig::FromTargets(
              20000, outs[k], /*blocks=*/8, parjoin::HashCombine(seed, k));
          queries.push_back(DirectQuery{
              parjoin::GenMatMulBlocks<S>(layout, cfg), {},
              parjoin::HashCombine(0x3a7e, k), {}});
        }
        return queries;
      });
}

// Line-4, star-3 and random line/tree queries at p = 32, each under a
// seeded crash + straggler (fixed 4x delay) + corruption, with interval
// checkpoints and resume-from-checkpoint on. 60 queries per pass keep the
// latency distribution dense around its median.
std::unique_ptr<Workload> MakeTreeFaulted() {
  constexpr int kP = 32;
  return std::make_unique<DirectWorkload>(
      kP, /*warmup_threads=*/1, [](std::uint64_t seed) {
        const mpc::Cluster layout(kP);
        std::vector<TreeInstance<S>> instances;
        const auto data_seed = [&](std::uint64_t k) {
          return parjoin::HashCombine(seed, k);
        };
        for (std::uint64_t v = 0; v < 10; ++v) {
          parjoin::LineBlockConfig line;
          line.arity = 4;
          line.blocks = 6;
          line.side_end = 12;
          line.side_mid = 10;
          line.seed = data_seed(10 + v);
          instances.push_back(parjoin::GenLineBlocks<S>(layout, line));
          parjoin::StarBlockConfig star;
          star.arity = 3;
          star.blocks = 6;
          star.side_arm = 6;
          star.side_b = 8;
          star.seed = data_seed(20 + v);
          instances.push_back(parjoin::GenStarBlocks<S>(layout, star));
          instances.push_back(parjoin::GenLineRandom<S>(
              layout, 4, 800, 300, 0, data_seed(30 + v)));
          instances.push_back(parjoin::GenStarRandom<S>(
              layout, 3, 600, 300, 200, 0.3, data_seed(40 + v)));
        }
        // Random tree shapes are fixed; their data is seeded.
        for (std::uint64_t t = 0; t < 20; ++t) {
          instances.push_back(parjoin::GenTreeRandom<S>(
              layout, parjoin::GenRandomQuery(6, 0x7ee5 + t), 400, 300,
              data_seed(50 + t)));
        }
        std::vector<DirectQuery> queries;
        for (std::size_t k = 0; k < instances.size(); ++k) {
          DirectQuery q{std::move(instances[k]), {},
                        parjoin::HashCombine(seed, 100 + k), {}};
          q.exec.faults.enabled = true;
          q.exec.faults.seed = parjoin::HashCombine(seed, 1000 + k);
          q.exec.faults.straggle_min = q.exec.faults.straggle_max = 4;
          q.exec.checkpoint_interval = 2;
          q.exec.resume_from_checkpoint = true;
          queries.push_back(std::move(q));
        }
        return queries;
      });
}

// Records the execution-phase wall time the executor reports to its
// profile seam (the serve-mix server calls TryExecuteWithRecovery itself).
class ExecTimer final : public plan::ExecutionProfileSink {
 public:
  void RecordExecution(const plan::ExecutionRecord& record) override {
    last_ms = record.wall_ms;
  }
  double last_ms = 0;
};

// parjoind traffic: one serve::Server (p = 16, 1 thread) over registered
// ~1k-tuple relations, serving matmul, line-3 and star-3 queries. There
// are more distinct queries than the plan cache holds (64); a pass holds
// each query a Zipf-popularity number of times, in seeded order.
class ServeWorkload final : public Workload {
 public:
  static constexpr int kP = 16;
  static constexpr int kRelations = 8;
  static constexpr int kDistinct = 160;
  static constexpr int kPassTarget = 400;
  static constexpr double kZipf = 0.9;

  ServeWorkload() {
    // The query set is fixed; the seed draws the data and the arrival
    // order. Shapes interleave so every popularity band mixes them.
    parjoin::Rng rng(0x5e4e3111);
    for (int q = 0; q < kDistinct; ++q) {
      const auto rel = [&] {
        return "@r" + std::to_string(rng.Uniform(0, kRelations - 1));
      };
      serve::QuerySpec spec;
      spec.p = kP;
      switch (q % 3) {
        case 0:  // matmul
          spec.edges = {{0, 1, rel()}, {1, 2, rel()}};
          spec.outputs = {0, 2};
          break;
        case 1:  // line-3
          spec.edges = {{0, 1, rel()}, {1, 2, rel()}, {2, 3, rel()}};
          spec.outputs = {0, 3};
          break;
        default:  // star-3 around attribute 1
          spec.edges = {{0, 1, rel()}, {1, 2, rel()}, {1, 3, rel()}};
          spec.outputs = {0, 2, 3};
          break;
      }
      specs_.push_back(std::move(spec));
    }
  }

  void Setup(std::uint64_t seed) override {
    seed_ = seed;
    parjoin::Rng rng(parjoin::HashCombine(seed, 0x5e7));
    relations_.clear();
    for (int i = 0; i < kRelations; ++i) {
      relations_.push_back(
          parjoin::internal_workload::RandomBinaryRelation<S>(
              Schema{0, 1}, 1000, 800, 800, /*skew_v=*/0.3,
              /*max_weight=*/10, rng));
    }
    untraced_ = MakeServer(nullptr);

    // The pass: query q appears max(1, round(target * w_q / sum w))
    // times, w_q = (q + 1)^-kZipf, shuffled by the seed.
    std::vector<double> w;
    double sum = 0;
    for (int q = 0; q < kDistinct; ++q) {
      w.push_back(std::pow(static_cast<double>(q + 1), -kZipf));
      sum += w.back();
    }
    pass_.clear();
    for (int q = 0; q < kDistinct; ++q) {
      const auto copies = std::max<std::int64_t>(
          1, std::llround(kPassTarget * w[static_cast<std::size_t>(q)] /
                          sum));
      for (std::int64_t c = 0; c < copies; ++c) pass_.push_back(q);
    }
    for (std::size_t i = pass_.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.Uniform(0, static_cast<std::int64_t>(i) - 1));
      std::swap(pass_[i - 1], pass_[j]);
    }
  }

  void ComputeReferences() override {
    references_.clear();
    for (const serve::QuerySpec& spec : specs_) {
      std::vector<parjoin::QueryEdge> edges;
      std::vector<Relation<S>> rels;
      for (const serve::SpecEdge& e : spec.edges) {
        edges.push_back({e.u, e.v});
        const int r = std::stoi(e.RefName().substr(1));
        rels.emplace_back(Schema{e.u, e.v},
                          relations_[static_cast<std::size_t>(r)].tuples());
      }
      references_.push_back(parjoin::EvaluateReference(
          parjoin::JoinTree(std::move(edges), spec.outputs), rels));
    }
  }

  const std::vector<int>& Pass() const override { return pass_; }
  bool has_server() const override { return true; }

  // The untraced phase serves from the server Setup built; a traced phase
  // gets a fresh server with the observer and the execution timer.
  void BeginPhase(SpanObserver* obs) override {
    active_ = untraced_.get();
    if (obs != nullptr) {
      traced_ = MakeServer(obs);
      active_ = traced_.get();
    }
  }

  CacheCounters cache() const override {
    const auto& c = active_->plan_cache().counters();
    return {c.hits, c.misses, c.evictions};
  }

  QueryResult Run(int q, SpanObserver*) override {
    QueryResult r;
    exec_timer_.last_ms = 0;
    const double cpu0 = ThreadCpuMs();
    Stopwatch total;
    const parjoin::Status enqueued =
        active_->Enqueue(specs_[static_cast<std::size_t>(q)],
                         "q" + std::to_string(q));
    std::vector<serve::Server<S>::Outcome> outcomes;
    if (enqueued.ok()) outcomes = active_->Drain();
    r.latency_ms = total.ElapsedMillis();
    r.cpu_ms = ThreadCpuMs() - cpu0;
    if (!enqueued.ok() || outcomes.size() != 1) {
      r.error = enqueued.ok() ? "expected one outcome per Drain"
                              : enqueued.ToString();
      return r;
    }
    const serve::Server<S>::Outcome& out = outcomes.front();
    r.ok = out.status.ok();
    if (!r.ok) r.error = out.status.ToString();
    r.correct =
        r.ok && out.result == references_[static_cast<std::size_t>(q)];
    r.ledger = ExecutionLedger(out.plan);
    r.cache_lookup = true;
    r.cache_hit = out.cache_hit;
    r.lookup_ms = out.plan_ms;
    if (!out.cache_hit) {
      r.plan_ms = out.plan_ms;
      r.plan_rounds = out.plan.planning_stats.rounds;
    }
    r.exec_ms = exec_timer_.last_ms;
    r.attempts = out.plan.recovery.attempts;
    return r;
  }

 private:
  std::unique_ptr<serve::Server<S>> MakeServer(SpanObserver* obs) {
    serve::ServerOptions options;
    options.p = kP;
    options.seed = parjoin::HashCombine(seed_, 0x5e4e);
    options.observer = obs;
    if (obs != nullptr) options.exec.profile = &exec_timer_;
    auto server = std::make_unique<serve::Server<S>>(std::move(options));
    for (int i = 0; i < kRelations; ++i) {
      const parjoin::Status s = server->RegisterRelation(
          "r" + std::to_string(i), relations_[static_cast<std::size_t>(i)]);
      if (!s.ok()) {
        std::cerr << "perfbench: registration failed: " << s << "\n";
        std::exit(1);
      }
    }
    return server;
  }

  std::uint64_t seed_ = 0;
  std::vector<serve::QuerySpec> specs_;
  std::vector<Relation<S>> relations_;
  std::vector<Relation<S>> references_;
  std::vector<int> pass_;
  ExecTimer exec_timer_;
  std::unique_ptr<serve::Server<S>> untraced_;
  std::unique_ptr<serve::Server<S>> traced_;
  serve::Server<S>* active_ = nullptr;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "matmul") return MakeMatMul();
  if (name == "serve-mix") return std::make_unique<ServeWorkload>();
  if (name == "tree-faulted") return MakeTreeFaulted();
  return nullptr;
}

// --- measurement -------------------------------------------------------------

// Run-wide correctness bookkeeping.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  // first few, for stderr
  std::map<int, Ledger> ledgers;     // first ledger seen per query
  std::vector<std::string> ledger_errors;

  void Record(int query, const QueryResult& r, const char* where) {
    attempted += 1;
    if (!r.correct) {
      failed += 1;
      if (errors.size() < 5) {
        errors.push_back("query " + std::to_string(query) + " (" + where +
                         "): " + (r.ok ? "result differs from reference"
                                       : r.error));
      }
    }
    if (!r.ok) return;
    const auto [it, inserted] = ledgers.emplace(query, r.ledger);
    if (!inserted && !(it->second == r.ledger) && ledger_errors.size() < 5) {
      ledger_errors.push_back("query " + std::to_string(query) + " (" +
                              where + "): ledger " + r.ledger.ToString() +
                              " != first run " + it->second.ToString());
    }
  }
};

// Latencies and pass rates are scaled to the reference host speed by the
// probe run after their pass.
struct Phase {
  std::vector<double> latencies;  // per-query client CPU ms, scaled
  std::vector<double> pass_qps;   // each measured pass: queries / CPU s, scaled
  std::vector<double> raw_pass_qps;  // the same, unscaled
  std::vector<double> probe_ms;      // each measured pass: probe median
  std::int64_t queries = 0;
  double latency_ms = 0;
  double plan_ms = 0;
  double exec_ms = 0;
  std::int64_t cold_plans = 0;
  double cold_plan_ms = 0;
  std::int64_t warm_plans = 0;
  double warm_plan_ms = 0;
  std::int64_t attempts = 0;
  CacheCounters cache;  // this phase's measured passes only
  // Summed over the first measured pass, which every phase completes: the
  // exact (ledger-derived) figures.
  Ledger first_pass;
  std::int64_t first_pass_plan_rounds = 0;
  std::map<int, std::int64_t> first_pass_chosen;

  double qps() const { return Median(pass_qps); }
};

// One measured phase: an untimed warm-up pass, then whole passes until
// `seconds` have passed and at least kMinSamples queries completed.
Phase RunPhase(Workload& w, SpanObserver* obs, double seconds,
               const char* where, Checks& checks) {
  w.BeginPhase(obs);
  parjoin::SetParallelForThreads(w.warmup_threads());
  for (int q : w.Pass()) checks.Record(q, w.Run(q, obs), where);
  if (obs != nullptr) obs->Reset();  // spans of measured passes only
  parjoin::SetParallelForThreads(1);

  Phase ph;
  const CacheCounters c0 = w.cache();
  Stopwatch clock;
  for (int pass = 0;; ++pass) {
    double pass_cpu_ms = 0;
    std::vector<double> pass_latencies;
    for (int q : w.Pass()) {
      const QueryResult r = w.Run(q, obs);
      checks.Record(q, r, where);
      pass_latencies.push_back(r.cpu_ms);
      pass_cpu_ms += r.cpu_ms;
      ph.queries += 1;
      ph.latency_ms += r.latency_ms;
      ph.plan_ms += r.plan_ms;
      ph.exec_ms += r.exec_ms;
      ph.attempts += r.attempts;
      if (r.cache_lookup) {
        (r.cache_hit ? ph.warm_plans : ph.cold_plans) += 1;
        (r.cache_hit ? ph.warm_plan_ms : ph.cold_plan_ms) += r.lookup_ms;
      }
      if (pass == 0 && r.ok) {
        ph.first_pass.max_load += r.ledger.max_load;
        ph.first_pass.rounds += r.ledger.rounds;
        ph.first_pass.total_comm += r.ledger.total_comm;
        ph.first_pass.critical_path += r.ledger.critical_path;
        ph.first_pass.recovery_comm += r.ledger.recovery_comm;
        ph.first_pass_plan_rounds += r.plan_rounds;
        ph.first_pass_chosen[r.ledger.chosen] += 1;
      }
    }
    const double probe_ms = MedianProbeMs(kProbesPerPass);
    const double scale = kProbeReferenceMs / probe_ms;
    for (double ms : pass_latencies) ph.latencies.push_back(ms * scale);
    const double raw_qps =
        1e3 * static_cast<double>(w.Pass().size()) / pass_cpu_ms;
    ph.pass_qps.push_back(raw_qps / scale);
    ph.raw_pass_qps.push_back(raw_qps);
    ph.probe_ms.push_back(probe_ms);
    if (clock.ElapsedSeconds() >= seconds && ph.queries >= kMinSamples) break;
  }
  const CacheCounters c1 = w.cache();
  ph.cache = {c1.hits - c0.hits, c1.misses - c0.misses,
              c1.evictions - c0.evictions};
  return ph;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string JsonNumber(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

const plan::Algorithm kAlgorithms[] = {
    plan::Algorithm::kSingleRelation,  plan::Algorithm::kYannakakis,
    plan::Algorithm::kHyperCube,       plan::Algorithm::kMatMulWorstCase,
    plan::Algorithm::kMatMulOutputSensitive,
    plan::Algorithm::kLineTheorem4,    plan::Algorithm::kStarTheorem5,
    plan::Algorithm::kStarLikeLemma7,  plan::Algorithm::kTreeTheorem6,
};

// The mpc primitives' scope labels (mpc/primitives.h, mpc/exchange.h).
const char* const kPrimScopes[] = {
    "sort",         "sort_grouped", "reduce_by_key",
    "exchange",     "exchange_multi", "multi_search",
    "packing",      "broadcast",    "gather",
};

std::vector<Metric> EndToEnd(const Phase& ph, double setup_s,
                             const Checks& checks) {
  const std::optional<TailPick> tail = PickTail(ph.latencies);
  std::cout << "tail: p" << (tail ? tail->percentile : 0) << " of "
            << ph.latencies.size() << " samples ("
            << (tail ? tail->beyond : 0) << " beyond)\n";
  return {
      {"qps", ph.qps(), "1/s"},
      {"query_ms_p50", Median(ph.latencies), "ms"},
      {"query_ms_tail", tail ? tail->value : 0, "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"success_rate",
       1.0 - Ratio(static_cast<double>(checks.failed),
                   static_cast<double>(checks.attempted)),
       "ratio"},
      {"sim_load", static_cast<double>(ph.first_pass.max_load), "tuples"},
      {"sim_rounds", static_cast<double>(ph.first_pass.rounds), "rounds"},
      {"sim_comm", static_cast<double>(ph.first_pass.total_comm), "tuples"},
      {"sim_critical_path", static_cast<double>(ph.first_pass.critical_path),
       "tuples"},
  };
}

std::vector<Metric> PerLayer(const Workload& w, const Phase& untraced,
                             const Phase& ph, const SpanObserver& obs) {
  const double n = static_cast<double>(ph.queries);
  const auto ms = [](std::int64_t ns) { return static_cast<double>(ns) / 1e6; };
  const auto outermost = [&](const char* scope) {
    const SpanObserver::ScopeStats* s = obs.Find(SpanObserver::kExec, scope);
    return s == nullptr ? 0 : s->outermost_ns;
  };
  const double lookups =
      static_cast<double>(ph.cache.hits + ph.cache.misses);
  const double exec_ms = ph.exec_ms / n;
  const double checkpoint_ms = ms(outermost("checkpoint")) / n;
  const double restore_ms = ms(outermost("restore")) / n;
  const double algo_ms = exec_ms - checkpoint_ms - restore_ms;
  std::int64_t exec_prim_outer_ns = 0;
  for (const auto& s : obs.scopes(SpanObserver::kExec)) {
    if (s.name != "checkpoint" && s.name != "restore") {
      exec_prim_outer_ns += s.outermost_ns;
    }
  }
  const double local_ms = algo_ms - ms(exec_prim_outer_ns) / n;

  std::vector<Metric> m = {
      {"serve.cache_hit_rate",
       Ratio(static_cast<double>(ph.cache.hits), lookups), "ratio"},
      {"serve.evictions",
       Ratio(static_cast<double>(ph.cache.evictions), lookups), "1/lookup"},
      {"serve.warm_plan_ms",
       Ratio(ph.warm_plan_ms, static_cast<double>(ph.warm_plans)), "ms"},
      {"serve.cold_plan_ms",
       Ratio(ph.cold_plan_ms, static_cast<double>(ph.cold_plans)), "ms"},
      {"serve.self_ms",
       w.has_server() ? (ph.latency_ms - ph.plan_ms - ph.exec_ms -
                         ph.warm_plan_ms) / n
                      : 0,
       "ms"},
      {"plan.ms", ph.plan_ms / n, "ms"},
      {"plan.rounds", static_cast<double>(ph.first_pass_plan_rounds),
       "rounds"},
      {"plan.share", Ratio(ph.plan_ms, ph.latency_ms), "ratio"},
      {"exec.ms", exec_ms, "ms"},
      {"exec.checkpoint_ms", checkpoint_ms, "ms"},
      {"exec.restore_ms", restore_ms, "ms"},
      {"exec.attempts", static_cast<double>(ph.attempts) / n, "1/query"},
      {"exec.useful_comm_share",
       Ratio(static_cast<double>(ph.first_pass.total_comm -
                                 ph.first_pass.recovery_comm),
             static_cast<double>(ph.first_pass.total_comm)),
       "ratio"},
      {"algo.ms", algo_ms, "ms"},
  };
  for (plan::Algorithm a : kAlgorithms) {
    const auto it = ph.first_pass_chosen.find(static_cast<int>(a));
    m.push_back({std::string("algo.chosen.") + plan::AlgorithmName(a),
                 it == ph.first_pass_chosen.end()
                     ? 0
                     : static_cast<double>(it->second),
                 "count"});
  }
  std::int64_t prim_ns = 0;
  std::int64_t prim_tuples = 0;
  for (const char* scope : kPrimScopes) {
    SpanObserver::ScopeStats sum;
    for (int phase : {SpanObserver::kPlan, SpanObserver::kExec}) {
      if (const auto* s =
              obs.Find(static_cast<SpanObserver::Phase>(phase), scope)) {
        sum.calls += s->calls;
        sum.self_ns += s->self_ns;
        sum.tuples += s->tuples;
      }
    }
    prim_ns += sum.self_ns;
    prim_tuples += sum.tuples;
    const std::string base = std::string("prim.") + scope;
    m.push_back({base + ".self_ms", ms(sum.self_ns) / n, "ms"});
    m.push_back({base + ".calls", static_cast<double>(sum.calls) / n,
                 "1/query"});
    m.push_back({base + ".tuples", static_cast<double>(sum.tuples) / n,
                 "1/query"});
  }
  m.push_back({"prim.ns_per_tuple",
               Ratio(static_cast<double>(prim_ns),
                     static_cast<double>(prim_tuples)),
               "ns/tuple"});
  m.push_back({"local.ms", local_ms, "ms"});
  m.push_back({"local.share", Ratio(local_ms, exec_ms), "ratio"});
  m.push_back({"trace.overhead", Ratio(untraced.qps(), ph.qps()), "ratio"});
  m.push_back({"host.probe_ms", Median(untraced.probe_ms), "ms"});
  m.push_back({"host.raw_qps", Median(untraced.raw_pass_qps), "1/s"});
  return m;
}

// The exact figures of a phase's first measured pass, one line: equal
// across runs of one seed, and between the untraced and traced phases.
std::string FirstPassLedger(const Phase& ph) {
  std::string line = "sim_load=" + std::to_string(ph.first_pass.max_load) +
                     " sim_rounds=" + std::to_string(ph.first_pass.rounds) +
                     " sim_comm=" + std::to_string(ph.first_pass.total_comm) +
                     " sim_critical_path=" +
                     std::to_string(ph.first_pass.critical_path) +
                     " plan_rounds=" +
                     std::to_string(ph.first_pass_plan_rounds) + " chosen=";
  for (const auto& [algo, count] : ph.first_pass_chosen) {
    line += std::string(plan::AlgorithmName(static_cast<plan::Algorithm>(
                algo))) +
            ":" + std::to_string(count) + ",";
  }
  return line;
}

void PrintResult(bool correct, const Checks& checks,
                 const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(checks.attempted) +
                     ", \"failed\": " + std::to_string(checks.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         args->trace >= 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <matmul|serve-mix|tree-faulted>"
                 " --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }

  std::vector<double> setup_times;
  std::vector<double> setup_probes;
  Stopwatch setup_clock;
  while (static_cast<int>(setup_times.size()) < kSetupRepeats ||
         setup_clock.ElapsedSeconds() < kSetupMinSeconds) {
    Stopwatch sw;
    w->Setup(args.seed);
    setup_times.push_back(sw.ElapsedSeconds());
    setup_probes.push_back(HostProbeMs());
  }
  const double setup_probe_ms = Median(setup_probes);
  const double setup_s =
      Median(setup_times) * kProbeReferenceMs / setup_probe_ms;
  w->ComputeReferences();

  Checks checks;
  std::vector<Metric> metrics;
  if (!args.trace) {
    const Phase ph = RunPhase(*w, nullptr, args.seconds, "untraced", checks);
    std::cout << "ledger: " << FirstPassLedger(ph) << "\n";
    std::cout << "host: probe " << Median(ph.probe_ms) << " ms (set-up "
              << setup_probe_ms << " ms, reference " << kProbeReferenceMs
              << " ms), unscaled qps " << Median(ph.raw_pass_qps)
              << ", unscaled setup_s " << Median(setup_times) << "\n";
    metrics = EndToEnd(ph, setup_s, checks);
  } else {
    const Phase untraced =
        RunPhase(*w, nullptr, args.seconds / 2, "untraced", checks);
    SpanObserver obs;
    const Phase traced = RunPhase(*w, &obs, args.seconds / 2, "traced",
                                  checks);
    if (obs.foreign_thread_calls() > 0 || obs.unbalanced() > 0) {
      std::cerr << "perfbench: observer contract broken ("
                << obs.foreign_thread_calls() << " foreign-thread calls, "
                << obs.unbalanced() << " unbalanced scopes)\n";
      return 1;
    }
    const std::string ledger = FirstPassLedger(untraced);
    std::cout << "ledger: " << ledger << "\n";
    if (FirstPassLedger(traced) != ledger) {
      checks.ledger_errors.push_back("traced first pass " +
                                     FirstPassLedger(traced) +
                                     " != untraced " + ledger);
    }
    metrics = PerLayer(*w, untraced, traced, obs);
  }

  std::vector<std::string> names;
  for (const Metric& m : metrics) names.push_back(m.name);
  const std::string bad = CheckMetricSet(
      names, args.trace ? kMaxPerLayerMetrics : kMaxEndToEndMetrics);
  if (!bad.empty()) {
    std::cerr << "perfbench: " << bad << "\n";
    return 1;
  }
  for (const std::string& e : checks.errors) {
    std::cerr << "perfbench: wrong output: " << e << "\n";
  }
  if (!checks.ledger_errors.empty()) {
    for (const std::string& e : checks.ledger_errors) {
      std::cerr << "perfbench: ledger not exact: " << e << "\n";
    }
    return 1;
  }
  PrintResult(checks.failed == 0, checks, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
