// E10 — §2.1 MPC primitives: the multi-thread scaling sweep (wall time at
// fixed N, p across PARJOIN_THREADS settings, outputs and loads verified
// bit-identical), the linear-load property (printed table), and micro
// throughput (google-benchmark). Every primitive must stay at O(N/p)
// load; the table reports measured load / (N/p) ratios. Sweep results are
// appended to the BENCH_parjoin.json trajectory.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "parjoin/common/logging.h"
#include "parjoin/common/parallel_for.h"
#include "parjoin/common/random.h"
#include "parjoin/common/row.h"
#include "parjoin/common/stopwatch.h"
#include "parjoin/common/table_printer.h"
#include "parjoin/mpc/cluster.h"
#include "parjoin/mpc/exchange.h"
#include "parjoin/mpc/primitives.h"
#include "parjoin/query/dangling.h"
#include "parjoin/relation/ops.h"
#include "parjoin/relation/relation.h"
#include "parjoin/semiring/semirings.h"
#include "parjoin/sketch/kmv.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

std::vector<std::pair<std::int64_t, std::int64_t>> MakePairs(
    std::int64_t n, std::int64_t keys, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  items.reserve(static_cast<size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    items.emplace_back(rng.Uniform(0, keys - 1), rng.Uniform(1, 9));
  }
  return items;
}

void BM_Sort(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  mpc::Cluster cluster(64);
  auto items = MakePairs(n, n, 1);
  auto dist = mpc::ScatterEvenly(items, 64);
  for (auto _ : state) {
    auto sorted =
        mpc::Sort(cluster, dist, [](const auto& kv) { return kv.first; });
    benchmark::DoNotOptimize(sorted);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Sort)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_ReduceByKey(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  mpc::Cluster cluster(64);
  auto items = MakePairs(n, n / 16, 2);
  auto dist = mpc::ScatterEvenly(items, 64);
  for (auto _ : state) {
    auto reduced = mpc::ReduceByKey(
        cluster, dist, [](const auto& kv) { return kv.first; },
        [](auto* acc, const auto& kv) { acc->second += kv.second; });
    benchmark::DoNotOptimize(reduced);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ReduceByKey)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_Exchange(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  mpc::Cluster cluster(64);
  auto items = MakePairs(n, n, 3);
  auto dist = mpc::ScatterEvenly(items, 64);
  for (auto _ : state) {
    auto parted = mpc::Exchange(cluster, dist, 64, [](const auto& kv) {
      return static_cast<int>(Mix64(static_cast<std::uint64_t>(kv.first)) %
                              64);
    });
    benchmark::DoNotOptimize(parted);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Exchange)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_KmvInsert(benchmark::State& state) {
  SeededHash hash(7);
  std::int64_t i = 0;
  Kmv kmv;
  for (auto _ : state) {
    kmv.AddHash(hash(static_cast<std::uint64_t>(i++)));
    benchmark::DoNotOptimize(kmv);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KmvInsert);

// One thread-sweep measurement: a primitive run under a forced thread
// count. The output parts and the cluster ledger are captured so every
// setting can be verified bit-identical to the sequential run.
struct SweepOutcome {
  bench::RunResult result;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> parts;
};

void RunThreadSweep(std::vector<bench::BenchJsonEntry>* json_entries) {
  const std::int64_t n = 1 << 20;
  const int p = 64;
  std::cout << "Thread scaling (N = 2^20, p = " << p
            << "; outputs and Stats verified identical across settings):\n";
  auto items = MakePairs(n, n, 1);
  const auto input = mpc::ScatterEvenly(std::move(items), p);

  using Primitive =
      std::function<SweepOutcome(mpc::Cluster&,
                                 const mpc::Dist<std::pair<std::int64_t,
                                                           std::int64_t>>&)>;
  const std::vector<std::pair<std::string, Primitive>> primitives = {
      {"sort",
       [](mpc::Cluster& c, const auto& in) {
         auto out = mpc::Sort(c, in, [](const auto& kv) { return kv.first; });
         return SweepOutcome{{}, std::move(out.parts())};
       }},
      {"exchange",
       [](mpc::Cluster& c, const auto& in) {
         auto out = mpc::Exchange(c, in, 64, [](const auto& kv) {
           return static_cast<int>(
               Mix64(static_cast<std::uint64_t>(kv.first)) % 64);
         });
         return SweepOutcome{{}, std::move(out.parts())};
       }},
      {"reduce-by-key",
       [](mpc::Cluster& c, const auto& in) {
         auto out = mpc::ReduceByKey(
             c, in, [](const auto& kv) { return kv.first % 4096; },
             [](auto* acc, const auto& kv) { acc->second += kv.second; });
         return SweepOutcome{{}, std::move(out.parts())};
       }},
  };

  TablePrinter table({"primitive", "threads", "wall_ms", "speedup",
                      "max_load", "rounds"});
  for (const auto& [name, primitive] : primitives) {
    SweepOutcome sequential;
    for (int threads : {1, 2, 4, 8}) {
      SetParallelForThreads(threads);
      mpc::Cluster c(p);
      Stopwatch watch;
      SweepOutcome outcome = primitive(c, input);
      outcome.result.wall_ms = watch.ElapsedMillis();
      outcome.result.load = c.stats().max_load;
      outcome.result.rounds = c.stats().rounds;
      outcome.result.total_comm = c.stats().total_comm;
      if (threads == 1) {
        sequential = outcome;
      } else {
        CHECK(outcome.parts == sequential.parts)
            << name << ": output differs at threads=" << threads;
        CHECK_EQ(outcome.result.load, sequential.result.load);
        CHECK_EQ(outcome.result.rounds, sequential.result.rounds);
        CHECK_EQ(outcome.result.total_comm, sequential.result.total_comm);
      }
      table.AddRow({name, Fmt(static_cast<std::int64_t>(threads)),
                    Fmt(outcome.result.wall_ms),
                    bench::Ratio(sequential.result.wall_ms,
                                 outcome.result.wall_ms),
                    Fmt(outcome.result.load),
                    Fmt(static_cast<std::int64_t>(outcome.result.rounds))});
      bench::BenchJsonEntry entry;
      entry.experiment = "E10";
      entry.name = name + "/n=1048576/p=64/threads=" + std::to_string(threads);
      entry.n = n;
      entry.p = p;
      entry.threads = threads;
      entry.result = outcome.result;
      json_entries->push_back(std::move(entry));
    }
  }
  SetParallelForThreads(0);
  table.Print(std::cout);
  std::cout << std::endl;
}

void PrintLinearLoadTable() {
  using parjoin::bench::Ratio;
  std::cout << "\nLinear-load property (N = 2^18, p = 64; ratio = measured "
               "load / (N/p)):\n";
  TablePrinter table({"primitive", "load", "N/p", "ratio", "rounds"});
  const std::int64_t n = 1 << 18;
  const int p = 64;
  const std::int64_t per = n / p;

  {
    mpc::Cluster c(p);
    auto dist = mpc::ScatterEvenly(MakePairs(n, n, 1), p);
    mpc::Sort(c, dist, [](const auto& kv) { return kv.first; });
    table.AddRow({"sort", Fmt(c.stats().max_load), Fmt(per),
                  Ratio(static_cast<double>(c.stats().max_load),
                        static_cast<double>(per)),
                  Fmt(static_cast<std::int64_t>(c.stats().rounds))});
  }
  {
    mpc::Cluster c(p);
    auto dist = mpc::ScatterEvenly(MakePairs(n, 64, 2), p);  // heavy skew
    mpc::ReduceByKey(
        c, dist, [](const auto& kv) { return kv.first; },
        [](auto* acc, const auto& kv) { acc->second += kv.second; });
    table.AddRow({"reduce-by-key (64 keys)", Fmt(c.stats().max_load),
                  Fmt(per),
                  Ratio(static_cast<double>(c.stats().max_load),
                        static_cast<double>(per)),
                  Fmt(static_cast<std::int64_t>(c.stats().rounds))});
  }
  {
    mpc::Cluster c(p);
    std::vector<mpc::PackedItem> items;
    Rng rng(5);
    for (std::int64_t i = 0; i < n / 16; ++i) {
      items.push_back({i, rng.UniformDouble() * 0.9 + 0.05, -1});
    }
    mpc::ParallelPacking(c, std::move(items));
    table.AddRow({"parallel-packing", Fmt(c.stats().max_load),
                  Fmt(n / 16 / p),
                  Ratio(static_cast<double>(c.stats().max_load),
                        static_cast<double>(n / 16 / p)),
                  Fmt(static_cast<std::int64_t>(c.stats().rounds))});
  }
  {
    mpc::Cluster c(p);
    MatMulGenConfig cfg;
    cfg.n1 = cfg.n2 = n / 2;
    cfg.dom_a = n / 8;
    cfg.dom_b = n / 32;
    cfg.dom_c = n / 8;
    auto instance = GenMatMulRandom<CountingSemiring>(c, cfg);
    c.ResetStats();
    RemoveDangling(c, &instance);
    table.AddRow({"remove-dangling (matmul)", Fmt(c.stats().max_load),
                  Fmt(per),
                  Ratio(static_cast<double>(c.stats().max_load),
                        static_cast<double>(per)),
                  Fmt(static_cast<std::int64_t>(c.stats().rounds))});
  }
  table.Print(std::cout);
  std::cout << std::endl;
}

// --- E6: final-merge strategy & fix-round ablation ---------------------------

using PairRuns =
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>;

// The E6 ablation baseline: Sort's original final merge, a pairwise
// ladder over whole runs. The merges of one level are independent and run
// under ParallelFor, so its late levels merge ever fewer, ever larger
// pairs and past level log2(threads) most workers idle. Same stable order
// as mpc::internal_primitives::MergeSortedRuns (ties resolve to the lower
// run index); elements are moved, never copied.
template <typename T, typename Less>
std::vector<T> MergeSortedRunsPairwise(std::vector<std::vector<T>> runs,
                                       Less less) {
  if (runs.empty()) return {};
  while (runs.size() > 1) {
    const int pairs = static_cast<int>(runs.size() / 2);
    std::vector<std::vector<T>> next((runs.size() + 1) / 2);
    ParallelFor(pairs, [&](int i) {
      auto& a = runs[static_cast<size_t>(2 * i)];
      auto& b = runs[static_cast<size_t>(2 * i + 1)];
      std::vector<T> merged;
      merged.reserve(a.size() + b.size());
      // std::merge takes from the first range on ties, so the lower part
      // index wins — exactly the stable order of the concatenation.
      std::merge(std::make_move_iterator(a.begin()),
                 std::make_move_iterator(a.end()),
                 std::make_move_iterator(b.begin()),
                 std::make_move_iterator(b.end()),
                 std::back_inserter(merged), less);
      a.clear();
      a.shrink_to_fit();
      b.clear();
      b.shrink_to_fit();
      next[static_cast<size_t>(i)] = std::move(merged);
    });
    if (runs.size() % 2 == 1) next.back() = std::move(runs.back());
    runs = std::move(next);
  }
  return std::move(runs.front());
}

// (a) The same presorted runs merged by the old pairwise ladder vs the
// splitter-partitioned multiway merge, at forced thread counts. The
// outputs are verified identical every time — the strategies may differ
// only in wall time (at threads=1 MergeSortedRuns merges one chunk with its
// own span ladder, which frees each run as it consumes it).
void RunMergeAblation(std::vector<bench::BenchJsonEntry>* json_entries) {
  const std::int64_t n = 1 << 20;
  const int run_count = 64;
  std::cout << "Final-merge strategies (N = 2^20, " << run_count
            << " presorted runs; outputs verified identical):\n";
  const auto by_key = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  auto dist = mpc::ScatterEvenly(MakePairs(n, n / 4, 11), run_count);
  for (auto& part : dist.parts()) {
    std::stable_sort(part.begin(), part.end(), by_key);
  }
  const PairRuns& runs = dist.parts();

  TablePrinter table({"threads", "pairwise_ms", "splitter_ms", "speedup"});
  for (int threads : {1, 2, 4, 8}) {
    SetParallelForThreads(threads);
    PairRuns copy = runs;
    Stopwatch pairwise_watch;
    const auto pairwise = MergeSortedRunsPairwise(std::move(copy), by_key);
    const double pairwise_ms = pairwise_watch.ElapsedMillis();
    copy = runs;
    Stopwatch splitter_watch;
    const auto splitter =
        mpc::internal_primitives::MergeSortedRuns(std::move(copy), by_key);
    const double splitter_ms = splitter_watch.ElapsedMillis();
    CHECK(pairwise == splitter)
        << "merge strategies disagree at threads=" << threads;
    table.AddRow({Fmt(static_cast<std::int64_t>(threads)), Fmt(pairwise_ms),
                  Fmt(splitter_ms),
                  bench::Ratio(pairwise_ms, splitter_ms)});
    for (const auto& [strategy, wall_ms] :
         {std::pair<std::string, double>{"pairwise", pairwise_ms},
          std::pair<std::string, double>{"splitter", splitter_ms}}) {
      bench::BenchJsonEntry entry;
      entry.experiment = "E6";
      entry.name = "merge/" + strategy +
                   "/threads=" + std::to_string(threads);
      entry.n = n;
      entry.p = run_count;
      entry.threads = threads;
      entry.result.wall_ms = wall_ms;
      json_entries->push_back(std::move(entry));
    }
  }
  SetParallelForThreads(0);
  table.Print(std::cout);
  std::cout << std::endl;
}

// (b) Sort's tuple path vs the decorated sort core. The baseline is
// mpc::Sort as it was before the decorated core: every part
// stable-sorted in place, the tuples merged by MergeSortedRuns (so they
// move once per ladder level), then ScatterEvenly moves them again into
// their parts. It charges the same round as mpc::Sort.
template <typename T, typename KeyFn>
mpc::Dist<T> SortTuplesBaseline(mpc::Cluster& cluster, mpc::Dist<T> in,
                                KeyFn key_fn) {
  const auto less = [&](const T& a, const T& b) {
    return key_fn(a) < key_fn(b);
  };
  ParallelFor(in.num_parts(), [&](int s) {
    std::stable_sort(in.part(s).begin(), in.part(s).end(), less);
  });
  std::vector<T> all =
      mpc::internal_primitives::MergeSortedRuns(std::move(in.parts()), less);
  mpc::Dist<T> out = mpc::ScatterEvenly(std::move(all), cluster.p());
  std::vector<std::int64_t> received;
  for (const auto& part : out.parts()) {
    received.push_back(static_cast<std::int64_t>(part.size()));
  }
  cluster.ChargeRound(received);
  return out;
}

// An 8-byte key with a 144-byte item, the size of the planner's KeyedKmv
// sketches.
struct WideItem {
  std::int64_t key = 0;
  std::array<std::uint64_t, 17> payload{};
  friend bool operator==(const WideItem&, const WideItem&) = default;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Times both paths on a fresh copy of `make()`'s input per repetition at
// threads 1, 2 and 4, and CHECKs on the first repetition of each setting
// that they return the same parts and charge the same ledger. Inputs are
// rebuilt rather than kept, so at most one input and two outputs (one
// after the first repetition) are alive at once.
template <typename T, typename MakeFn, typename KeyFn>
void TimeSortPaths(const std::string& payload, MakeFn make, KeyFn key_fn,
                   std::int64_t n, int runs, TablePrinter* table,
                   std::vector<bench::BenchJsonEntry>* json_entries) {
  const int reps = 5;
  for (int threads : {1, 2, 4}) {
    SetParallelForThreads(threads);
    std::vector<double> tuple_ms;
    std::vector<double> decorated_ms;
    bench::RunResult ledger;
    for (int rep = 0; rep < reps; ++rep) {
      mpc::Cluster base_cluster(runs);
      mpc::Dist<T> base_in = make();
      Stopwatch base_watch;
      mpc::Dist<T> base_out =
          SortTuplesBaseline(base_cluster, std::move(base_in), key_fn);
      tuple_ms.push_back(base_watch.ElapsedMillis());
      if (rep > 0) base_out = mpc::Dist<T>();  // only rep 0 is compared

      mpc::Cluster cluster(runs);
      mpc::Dist<T> in = make();
      Stopwatch watch;
      mpc::Dist<T> out = mpc::Sort(cluster, std::move(in), key_fn);
      decorated_ms.push_back(watch.ElapsedMillis());
      if (rep == 0) {
        CHECK(out.parts() == base_out.parts())
            << payload << ": sort paths disagree at threads=" << threads;
        CHECK_EQ(cluster.stats().max_load, base_cluster.stats().max_load);
        CHECK_EQ(cluster.stats().total_comm, base_cluster.stats().total_comm);
        ledger.load = cluster.stats().max_load;
        ledger.rounds = cluster.stats().rounds;
        ledger.total_comm = cluster.stats().total_comm;
        ledger.critical_path = cluster.stats().critical_path;
      }
    }
    const double tuple_med = Median(tuple_ms);
    const double decorated_med = Median(decorated_ms);
    const auto range = [](const std::vector<double>& v) {
      const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
      return Fmt(*lo) + "-" + Fmt(*hi);
    };
    table->AddRow({payload, Fmt(static_cast<std::int64_t>(threads)),
                   Fmt(tuple_med), range(tuple_ms), Fmt(decorated_med),
                   range(decorated_ms),
                   bench::Ratio(tuple_med, decorated_med)});
    // The median is the row; min and max ride in sibling rows.
    const auto add_rows = [&](const std::string& path,
                              const std::vector<double>& times) {
      const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
      for (const auto& [suffix, wall_ms] :
           std::initializer_list<std::pair<std::string, double>>{
               {"", Median(times)}, {"/min", *lo}, {"/max", *hi}}) {
        bench::BenchJsonEntry entry;
        entry.experiment = "E6";
        entry.name = "sort/" + path + "/" + payload +
                     "/threads=" + std::to_string(threads) + suffix;
        entry.n = n;
        entry.p = runs;
        entry.threads = threads;
        entry.result = ledger;
        entry.result.wall_ms = wall_ms;
        json_entries->push_back(std::move(entry));
      }
    };
    add_rows("tuple", tuple_ms);
    add_rows("decorated", decorated_ms);
  }
  SetParallelForThreads(0);
}

void RunSortAblation(std::vector<bench::BenchJsonEntry>* json_entries) {
  const std::int64_t n = 1 << 20;
  const int runs = 64;
  std::cout << "Sort paths (N = 2^20 in " << runs
            << " runs, median and min-max of 5 reps; outputs and ledgers "
               "verified identical):\n";
  TablePrinter table({"payload", "threads", "tuple_ms", "tuple_range",
                      "decorated_ms", "decorated_range", "speedup"});
  TimeSortPaths<WideItem>(
      "wide144",
      [&] {
        Rng rng(13);
        std::vector<WideItem> items(static_cast<size_t>(n));
        for (size_t i = 0; i < items.size(); ++i) {
          items[i].key = rng.Uniform(0, n / 4);
          items[i].payload.fill(i);  // ties stay distinguishable
        }
        return mpc::ScatterEvenly(std::move(items), runs);
      },
      [](const WideItem& item) { return item.key; }, n, runs, &table,
      json_entries);
  using RowTuple = Tuple<CountingSemiring>;
  TimeSortPaths<RowTuple>(
      "row",
      [&] {
        Rng rng(17);
        std::vector<RowTuple> items(static_cast<size_t>(n));
        for (size_t i = 0; i < items.size(); ++i) {
          items[i].row = Row{rng.Uniform(0, 1023), rng.Uniform(0, n / 64)};
          items[i].w = static_cast<std::int64_t>(i);
        }
        return mpc::ScatterEvenly(std::move(items), runs);
      },
      [](const RowTuple& t) -> const Row& { return t.row; }, n, runs, &table,
      json_entries);
  table.Print(std::cout);
  std::cout << std::endl;
}

// (c) Directed fix-round scaling. Every source part holds the same 16
// keys, so pre-aggregation keeps them all, each key's run spans ~p/16
// sorted parts, and after the fix almost every part between a run's home
// and its end is empty. The old per-item backward walk re-scanned those
// parts for every shipped item — O(N·p) on this shape — while the
// boundary-summary fix round is O(N + p): wall time per item must stay
// flat as p grows.
void RunFixRoundSweep(std::vector<bench::BenchJsonEntry>* json_entries) {
  std::cout << "ReduceByKey on replicated-key shapes (16 shared keys, 1 "
               "item/key/part, threads=1;\nus/item must stay flat in p):\n";
  SetParallelForThreads(1);  // isolate the algorithmic effect
  TablePrinter table({"p", "n", "reps", "wall_ms", "us_per_item"});
  for (int p : {64, 128, 256, 512}) {
    const std::int64_t keys = 16;
    const std::int64_t n = keys * p;
    const int reps = 50;
    mpc::Dist<std::pair<std::int64_t, std::int64_t>> input(p);
    for (int s = 0; s < p; ++s) {
      for (std::int64_t k = 0; k < keys; ++k) {
        input.part(s).emplace_back(k, s);
      }
    }
    bench::RunResult result;
    Stopwatch watch;
    for (int rep = 0; rep < reps; ++rep) {
      mpc::Cluster c(p);
      auto out = mpc::ReduceByKey(
          c, input, [](const auto& kv) { return kv.first; },
          [](auto* acc, const auto& kv) { acc->second += kv.second; });
      CHECK_EQ(static_cast<std::int64_t>(out.TotalSize()), keys);
      result.load = c.stats().max_load;
      result.rounds = c.stats().rounds;
      result.total_comm = c.stats().total_comm;
      result.critical_path = c.stats().critical_path;
    }
    result.wall_ms = watch.ElapsedMillis();
    const double us_per_item =
        result.wall_ms * 1000.0 / static_cast<double>(n * reps);
    table.AddRow({Fmt(static_cast<std::int64_t>(p)), Fmt(n),
                  Fmt(static_cast<std::int64_t>(reps)), Fmt(result.wall_ms),
                  Fmt(us_per_item)});
    bench::BenchJsonEntry entry;
    entry.experiment = "E6";
    entry.name = "fixround/reduce/p=" + std::to_string(p);
    entry.n = n;
    entry.p = p;
    entry.threads = 1;
    entry.result = result;
    json_entries->push_back(std::move(entry));
  }
  SetParallelForThreads(0);
  table.Print(std::cout);
  std::cout << std::endl;
}

void RunE6(bool write_json) {
  bench::PrintHeader(
      "E6", "final-merge, sort-path & fix-round ablation",
      "Pairwise ladder vs splitter multiway merge, Sort's tuple path vs "
      "the decorated sort core, and the boundary-summary fix round's "
      "scaling in p.");
  std::vector<bench::BenchJsonEntry> entries;
  RunMergeAblation(&entries);
  RunSortAblation(&entries);
  RunFixRoundSweep(&entries);
  if (!write_json) return;
  const std::string json_path = bench::BenchJsonPath();
  std::string error;
  if (bench::UpdateBenchJson(json_path, "E6", entries, &error)) {
    std::cout << "wrote " << entries.size() << " E6 entries to " << json_path
              << "\n";
  } else {
    std::cerr << "BENCH json: " << error << "\n";
  }
}

}  // namespace
}  // namespace parjoin

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == std::string("--e6-only")) {
      // CI smoke mode: just the E6 ablations and their JSON.
      parjoin::RunE6(/*write_json=*/true);
      return 0;
    }
  }
  parjoin::bench::PrintHeader(
      "E10", "§2.1 primitive costs",
      "Thread scaling, linear-load table, then micro throughput.");
  std::vector<parjoin::bench::BenchJsonEntry> entries;
  parjoin::RunThreadSweep(&entries);
  parjoin::PrintLinearLoadTable();
  const std::string json_path = parjoin::bench::BenchJsonPath();
  std::string error;
  if (parjoin::bench::UpdateBenchJson(json_path, "E10", entries, &error)) {
    std::cout << "wrote " << entries.size() << " E10 entries to " << json_path
              << "\n";
  } else {
    std::cerr << "BENCH json: " << error << "\n";
  }
  parjoin::RunE6(/*write_json=*/true);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
