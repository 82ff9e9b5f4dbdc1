// Tests for the MPC core: cluster load accounting, exchange variants, and
// the §2.1 primitives (sort, grouped sort, reduce-by-key, parallel packing,
// multi-search).

#include "parjoin/mpc/primitives.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "parjoin/common/hash.h"
#include "parjoin/common/parallel_for.h"
#include "parjoin/common/random.h"
#include "parjoin/common/row.h"
#include "parjoin/mpc/cluster.h"
#include "parjoin/mpc/dist.h"
#include "parjoin/mpc/exchange.h"
#include "parjoin/relation/relation.h"

namespace parjoin {
namespace mpc {
namespace {

// Restores the default thread count when a test exits.
struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { SetParallelForThreads(0); }
};

TEST(ClusterTest, ChargeRoundTracksMaxAndTotal) {
  Cluster c(4);
  c.ChargeRound({1, 2, 3, 4});
  EXPECT_EQ(c.stats().rounds, 1);
  EXPECT_EQ(c.stats().max_load, 4);
  EXPECT_EQ(c.stats().total_comm, 10);
  c.ChargeRound({10, 0, 0, 0});
  EXPECT_EQ(c.stats().rounds, 2);
  EXPECT_EQ(c.stats().max_load, 10);
  EXPECT_EQ(c.stats().total_comm, 20);
}

TEST(ClusterTest, VirtualServersChargePhysicalHosts) {
  Cluster c(2);
  // Virtual servers 0..3 map to physical 0,1,0,1.
  c.ChargeRound({1, 1, 1, 1});
  EXPECT_EQ(c.stats().max_load, 2);
}

TEST(ClusterTest, ResetStatsClears) {
  Cluster c(2);
  c.ChargeRound({5, 5});
  c.ResetStats();
  EXPECT_EQ(c.stats().rounds, 0);
  EXPECT_EQ(c.stats().max_load, 0);
}

TEST(DistTest, ScatterEvenlyBalances) {
  std::vector<int> items(103);
  std::iota(items.begin(), items.end(), 0);
  Dist<int> d = ScatterEvenly(items, 10);
  EXPECT_EQ(d.TotalSize(), 103);
  EXPECT_LE(d.MaxPartSize(), 11);
  std::vector<int> back = d.Flatten();
  EXPECT_EQ(back, items);
}

TEST(ExchangeTest, RoutesEveryItemAndCharges) {
  Cluster c(4);
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  Dist<int> in = ScatterEvenly(items, 4);
  Dist<int> out = Exchange(c, in, 4, [](int x) { return x % 4; });
  EXPECT_EQ(out.TotalSize(), 100);
  for (int s = 0; s < 4; ++s) {
    for (int x : out.part(s)) EXPECT_EQ(x % 4, s);
  }
  EXPECT_EQ(c.stats().rounds, 1);
  EXPECT_EQ(c.stats().total_comm, 100);
  EXPECT_EQ(c.stats().max_load, 25);
}

TEST(ExchangeTest, MultiReplicates) {
  Cluster c(3);
  Dist<int> in = ScatterEvenly(std::vector<int>{1, 2, 3}, 3);
  Dist<int> out = ExchangeMulti(c, in, 3, [](int, std::vector<int>* dests) {
    dests->push_back(0);
    dests->push_back(2);
  });
  EXPECT_EQ(out.part(0).size(), 3u);
  EXPECT_EQ(out.part(1).size(), 0u);
  EXPECT_EQ(out.part(2).size(), 3u);
  EXPECT_EQ(c.stats().max_load, 3);
}

TEST(ExchangeTest, MultiWithOneDestinationMatchesExchange) {
  // Exchange and ExchangeMulti share one routing core: given one
  // destination per item they must deliver the same parts and charge the
  // same ledger — on the sequential walk (few items or one thread), on the
  // threaded bucket path, and through the retransmit path of an armed
  // corruption fault. 11 destinations on 8 servers adds virtual servers.
  ThreadOverrideGuard guard;
  const int p = 8;
  const int dests = 11;
  const auto route = [dests](std::int64_t x) {
    return static_cast<int>(Mix64(static_cast<std::uint64_t>(x)) %
                            static_cast<std::uint64_t>(dests));
  };
  for (std::int64_t n :
       {std::int64_t{500}, 4 * internal_exchange::kMinItemsForThreadedRoute}) {
    for (int threads : {1, 4}) {
      for (bool corrupt : {false, true}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " threads=" +
                     std::to_string(threads) +
                     " corrupt=" + std::to_string(corrupt));
        SetParallelForThreads(threads);
        std::vector<std::int64_t> items(static_cast<size_t>(n));
        std::iota(items.begin(), items.end(), 0);
        const Dist<std::int64_t> in = ScatterEvenly(items, p);
        const auto run = [&](auto exchange) {
          Cluster c(p);
          if (corrupt) {
            FaultConfig faults;
            faults.enabled = true;
            faults.crashes = 0;
            faults.stragglers = 0;
            faults.horizon = 1;
            c.EnableFaults(faults);
          }
          Dist<std::int64_t> out = exchange(c);
          return std::make_pair(std::move(out.parts()), c.stats());
        };
        const auto [single, single_stats] = run([&](Cluster& c) {
          return Exchange(c, in, dests, route);
        });
        const auto [multi, multi_stats] = run([&](Cluster& c) {
          return ExchangeMulti(c, in, dests,
                               [&](std::int64_t x, std::vector<int>* d) {
                                 d->push_back(route(x));
                               });
        });
        EXPECT_EQ(multi, single);
        EXPECT_EQ(multi_stats.rounds, single_stats.rounds);
        EXPECT_EQ(multi_stats.max_load, single_stats.max_load);
        EXPECT_EQ(multi_stats.total_comm, single_stats.total_comm);
        EXPECT_EQ(multi_stats.critical_path, single_stats.critical_path);
        EXPECT_EQ(multi_stats.recovery_comm, single_stats.recovery_comm);
        EXPECT_EQ(multi_stats.retransmits, single_stats.retransmits);
        EXPECT_EQ(single_stats.retransmits, corrupt ? 1 : 0);
        EXPECT_EQ(single_stats.total_comm,
                  n + single_stats.recovery_comm);
      }
    }
  }
}

TEST(ExchangeTest, BroadcastDeliversEverywhere) {
  Cluster c(5);
  Dist<int> in = ScatterEvenly(std::vector<int>{7, 8}, 5);
  Dist<int> out = Broadcast(c, in);
  for (int s = 0; s < 5; ++s) {
    EXPECT_EQ(out.part(s), (std::vector<int>{7, 8}));
  }
  EXPECT_EQ(c.stats().max_load, 2);
}

TEST(ExchangeTest, GatherToVirtualServerChargesPhysicalHost) {
  // A destination id >= p is a virtual server hosted on dest mod p; the
  // charge must land there and the data must still arrive intact.
  Cluster c(4);
  std::vector<int> items(24);
  std::iota(items.begin(), items.end(), 0);
  Dist<int> in = ScatterEvenly(items, 4);
  std::vector<int> all = Gather(c, in, /*dest_part=*/9);
  EXPECT_EQ(all, items);
  EXPECT_EQ(c.stats().rounds, 1);
  EXPECT_EQ(c.stats().max_load, 24);
  EXPECT_EQ(c.stats().total_comm, 24);
}

TEST(ExchangeTest, GatherChargesDestination) {
  Cluster c(4);
  std::vector<int> items(40);
  std::iota(items.begin(), items.end(), 0);
  Dist<int> in = ScatterEvenly(items, 4);
  std::vector<int> all = Gather(c, in, 0);
  EXPECT_EQ(all.size(), 40u);
  EXPECT_EQ(c.stats().max_load, 40);
}

TEST(SortTest, GloballySortsAndBalances) {
  Cluster c(8);
  Rng rng(7);
  std::vector<std::int64_t> items;
  for (int i = 0; i < 1000; ++i) items.push_back(rng.Uniform(0, 500));
  Dist<std::int64_t> in = ScatterEvenly(items, 8);
  Dist<std::int64_t> out =
      Sort(c, in, [](std::int64_t v) { return v; });
  EXPECT_EQ(out.TotalSize(), 1000);
  std::vector<std::int64_t> flat = out.Flatten();
  EXPECT_TRUE(std::is_sorted(flat.begin(), flat.end()));
  EXPECT_LE(out.MaxPartSize(), 125);
  EXPECT_LE(c.stats().max_load, 125);
}

TEST(SortGroupedTest, EqualKeysLandTogether) {
  Cluster c(4);
  Rng rng(11);
  struct Item {
    std::int64_t key;
    int payload;
  };
  std::vector<Item> items;
  for (int i = 0; i < 400; ++i) {
    items.push_back({rng.Uniform(0, 50), i});
  }
  Dist<Item> in = ScatterEvenly(items, 4);
  Dist<Item> out =
      SortGroupedByKey(c, in, [](const Item& it) { return it.key; });
  EXPECT_EQ(out.TotalSize(), 400);
  // Every key appears in exactly one part.
  std::map<std::int64_t, int> key_part;
  for (int s = 0; s < out.num_parts(); ++s) {
    for (const auto& it : out.part(s)) {
      auto [pos, inserted] = key_part.emplace(it.key, s);
      if (!inserted) {
        EXPECT_EQ(pos->second, s) << "key split across parts";
      }
    }
  }
}

TEST(SortGroupedTest, RunSpanningManyPartsLandsOnRunStart) {
  // 6 parts of 3 items each; key 2 occupies the sorted middle (9 copies),
  // so its run spans parts 1, 2, and 3 (more than two consecutive
  // servers). The fix round must move the whole run to the part where it
  // starts, not just merge one boundary.
  Cluster c(6);
  struct Item {
    std::int64_t key;
    int payload;
  };
  std::vector<Item> items;
  const std::int64_t keys[] = {1, 1, 1, 2, 2, 2, 2, 2, 2,
                               2, 2, 2, 3, 3, 3, 4, 4, 4};
  for (int i = 0; i < 18; ++i) items.push_back({keys[i], i});
  Dist<Item> in = ScatterEvenly(items, 6);
  Dist<Item> out = SortGroupedByKey(
      c, in, [](const Item& it) { return it.key; }, 6);
  EXPECT_EQ(out.TotalSize(), 18);
  std::map<std::int64_t, int> key_part;
  std::map<std::int64_t, int> key_count;
  for (int s = 0; s < out.num_parts(); ++s) {
    for (const auto& it : out.part(s)) {
      auto [pos, inserted] = key_part.emplace(it.key, s);
      if (!inserted) {
        EXPECT_EQ(pos->second, s) << "key " << it.key << " split across parts";
      }
      key_count[it.key] += 1;
    }
  }
  EXPECT_EQ(key_count[2], 9);
  // The run of key 2 starts in part 1 (sorted layout: part 0 = {1,1,1},
  // part 1 = {2,2,2}, ...), so that's where all of it must live.
  EXPECT_EQ(key_part[2], 1);
}

TEST(ReduceByKeyTest, SumsPerKey) {
  Cluster c(4);
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  Rng rng(3);
  std::map<std::int64_t, std::int64_t> expected;
  for (int i = 0; i < 500; ++i) {
    std::int64_t k = rng.Uniform(0, 40);
    std::int64_t v = rng.Uniform(1, 9);
    items.emplace_back(k, v);
    expected[k] += v;
  }
  auto in = ScatterEvenly(items, 4);
  auto out = ReduceByKey(
      c, in, [](const auto& kv) { return kv.first; },
      [](auto* acc, const auto& kv) { acc->second += kv.second; });
  std::map<std::int64_t, std::int64_t> got;
  out.ForEach([&](const auto& kv) {
    EXPECT_EQ(got.count(kv.first), 0u) << "duplicate key in output";
    got[kv.first] = kv.second;
  });
  EXPECT_EQ(got, expected);
}

TEST(ReduceByKeyTest, SkewedKeyIsPreAggregated) {
  // All 10k items share one key: local pre-aggregation must keep the load
  // tiny (this is what makes reduce-by-key linear-load under skew).
  Cluster c(8);
  std::vector<std::pair<std::int64_t, std::int64_t>> items(
      10000, {42, 1});
  auto in = ScatterEvenly(items, 8);
  auto out = ReduceByKey(
      c, in, [](const auto& kv) { return kv.first; },
      [](auto* acc, const auto& kv) { acc->second += kv.second; });
  EXPECT_EQ(out.TotalSize(), 1);
  std::int64_t total = 0;
  out.ForEach([&](const auto& kv) { total = kv.second; });
  EXPECT_EQ(total, 10000);
  EXPECT_LE(c.stats().max_load, 16) << "pre-aggregation should cap the load";
}

TEST(ReduceByKeyTest, CombinesAcrossPartBoundaries) {
  Cluster c(3);
  // Keys chosen so the sorted order straddles part boundaries.
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  for (int i = 0; i < 9; ++i) items.emplace_back(i / 3, 1);
  auto in = ScatterEvenly(items, 3);
  auto out = ReduceByKey(
      c, in, [](const auto& kv) { return kv.first; },
      [](auto* acc, const auto& kv) { acc->second += kv.second; });
  std::map<std::int64_t, std::int64_t> got;
  out.ForEach([&](const auto& kv) { got[kv.first] += kv.second; });
  EXPECT_EQ(got, (std::map<std::int64_t, std::int64_t>{{0, 3}, {1, 3}, {2, 3}}));
  EXPECT_EQ(out.TotalSize(), 3);
}

TEST(ReduceByKeyTest, KeyRunSpanningManyPartsCombinesIntoRunStart) {
  // After pre-aggregation, one item with key 7 survives per source part;
  // the global sort spreads the run of key 7 over parts 0..3 (it starts
  // mid-part 0, after key 1). The boundary fix must walk back across
  // MULTIPLE parts and combine everything into the run's start.
  Cluster c(4);
  std::vector<std::pair<std::int64_t, std::int64_t>> items = {
      {1, 1}, {7, 1}, {7, 2}, {7, 3}, {7, 4}, {7, 5}, {7, 6}, {9, 1}};
  auto in = ScatterEvenly(items, 4);  // 2 items per source part
  auto out = ReduceByKey(
      c, in, [](const auto& kv) { return kv.first; },
      [](auto* acc, const auto& kv) { acc->second += kv.second; });
  std::map<std::int64_t, std::int64_t> got;
  int parts_with_key7 = 0;
  for (int s = 0; s < out.num_parts(); ++s) {
    for (const auto& kv : out.part(s)) {
      EXPECT_EQ(got.count(kv.first), 0u) << "duplicate key " << kv.first;
      got[kv.first] = kv.second;
      if (kv.first == 7) ++parts_with_key7;
    }
  }
  EXPECT_EQ(got, (std::map<std::int64_t, std::int64_t>{
                     {1, 1}, {7, 21}, {9, 1}}));
  EXPECT_EQ(parts_with_key7, 1);
}

TEST(ParallelPackingTest, RespectsCapacityAndFill) {
  Cluster c(4);
  Rng rng(5);
  std::vector<PackedItem> items;
  double total = 0;
  for (int i = 0; i < 200; ++i) {
    double w = rng.UniformDouble() * 0.99 + 0.01;
    items.push_back({i, w, -1});
    total += w;
  }
  auto packed = ParallelPacking(c, items);
  std::map<int, double> group_sum;
  for (const auto& it : packed) {
    ASSERT_GE(it.group, 0);
    group_sum[it.group] += it.weight;
  }
  int under_half = 0;
  for (const auto& [g, sum] : group_sum) {
    EXPECT_LE(sum, 1.0 + 1e-9);
    if (sum < 0.5) ++under_half;
  }
  EXPECT_LE(under_half, 1) << "all but one group must be at least half full";
  EXPECT_LE(static_cast<double>(group_sum.size()), 1 + 2 * total);
}

TEST(ParallelPackingTest, SingleHeavyItemsGetOwnGroups) {
  Cluster c(2);
  std::vector<PackedItem> items = {{0, 0.9, -1}, {1, 0.8, -1}, {2, 0.1, -1}};
  auto packed = ParallelPacking(c, items);
  std::map<std::int64_t, int> group_of;
  for (const auto& it : packed) group_of[it.id] = it.group;
  EXPECT_NE(group_of[0], group_of[1]);
}

TEST(ParallelRegionTest, RoundsCountLongestBranch) {
  Cluster c(4);
  {
    ParallelRegion region(c);
    region.NextBranch();
    c.ChargeRound({1, 0, 0, 0});
    c.ChargeRound({1, 0, 0, 0});  // branch 1: 2 rounds
    region.NextBranch();
    c.ChargeRound({0, 5, 0, 0});  // branch 2: 1 round
    region.NextBranch();
    for (int i = 0; i < 5; ++i) c.ChargeRound({0, 0, 1, 0});  // 5 rounds
  }
  EXPECT_EQ(c.stats().rounds, 5) << "max over branches, not the sum";
  EXPECT_EQ(c.stats().max_load, 5) << "loads unaffected";
  EXPECT_EQ(c.stats().total_comm, 12) << "total comm unaffected";
}

TEST(ParallelRegionTest, NestedRegions) {
  Cluster c(2);
  {
    ParallelRegion outer(c);
    outer.NextBranch();
    c.ChargeRound({1, 0});
    {
      ParallelRegion inner(c);
      inner.NextBranch();
      c.ChargeRound({1, 0});
      c.ChargeRound({1, 0});
      inner.NextBranch();
      c.ChargeRound({0, 1});
    }  // inner contributes max(2, 1) = 2 rounds
    outer.NextBranch();
    c.ChargeRound({0, 1});  // second outer branch: 1 round
  }
  EXPECT_EQ(c.stats().rounds, 3) << "1 + inner(2) vs 1 -> max is 3";
}

TEST(ParallelRegionTest, EmptyRegionAddsNothing) {
  Cluster c(2);
  c.ChargeRound({1, 1});
  {
    ParallelRegion region(c);
    region.NextBranch();
    region.NextBranch();
  }
  EXPECT_EQ(c.stats().rounds, 1);
}

TEST(MultiSearchTest, FindsPredecessors) {
  Cluster c(4);
  std::vector<std::int64_t> ys = {10, 20, 30};
  std::vector<std::int64_t> xs = {5, 10, 15, 25, 35};
  auto pred = MultiSearch(c, xs, ys);
  EXPECT_EQ(pred, (std::vector<std::int64_t>{kNoPredecessor, 10, 10, 20, 30}));
}

// --- Splitter merge ---------------------------------------------------------

TEST(SortTest, MergeSortedRunsMatchesStableSort) {
  // The contract is the order std::stable_sort gives the run-order
  // concatenation. Provenance-tagged items: keys carry many duplicates and
  // the tag encodes (run, position), so any stability violation — a tie
  // resolved to the wrong run, or reordering within a run — changes the
  // output.
  using Tagged = std::pair<std::int64_t, std::int64_t>;
  const auto by_key = [](const Tagged& a, const Tagged& b) {
    return a.first < b.first;
  };
  struct Case {
    std::vector<int> run_lengths;
    std::int64_t keys;  // keys drawn from [0, keys)
    int threads;
  };
  const std::vector<int> skewed = {2000, 2700, 3400, 0, 4800, 5500, 6200};
  const std::vector<Case> cases = {
      {skewed, 200, 4},                  // splitter chunks
      {skewed, 200, 1},                  // one chunk: one thread
      {{0, 300, 0, 1200, 50, 0}, 40, 4},  // one chunk: below the cutoff
      {{5000, 0, 4000, 3000}, 1, 4},     // all keys equal, chunked
      {{500, 0, 700}, 1, 1},             // all keys equal, one chunk
      {{0, 0, 0}, 10, 4},                // only empty runs
      {{}, 10, 1},                       // no runs
  };
  ASSERT_LT(1550, internal_primitives::kSplitterMergeMinTotal);
  ThreadOverrideGuard guard;
  Rng rng(11);
  for (size_t k = 0; k < cases.size(); ++k) {
    const Case& c = cases[k];
    std::vector<std::vector<Tagged>> runs;
    std::vector<Tagged> expected;
    for (size_t r = 0; r < c.run_lengths.size(); ++r) {
      std::vector<Tagged> run;
      for (int i = 0; i < c.run_lengths[r]; ++i) {
        run.push_back({rng.Uniform(0, c.keys - 1),
                       static_cast<std::int64_t>(r) * 1000000 + i});
      }
      std::stable_sort(run.begin(), run.end(), by_key);
      expected.insert(expected.end(), run.begin(), run.end());
      runs.push_back(std::move(run));
    }
    std::stable_sort(expected.begin(), expected.end(), by_key);
    SetParallelForThreads(c.threads);
    EXPECT_EQ(internal_primitives::MergeSortedRuns(std::move(runs), by_key),
              expected)
        << "case " << k;
  }
}

// --- Decorated sort core vs a stable-sort oracle ----------------------------
//
// Sort, SortGroupedByKey and ReduceByKey must equal what std::stable_sort
// of the parts concatenated in part order gives, and ReduceByKey must
// combine each key's items left to right in that order. SeqHash is the
// hash of a sequence of ids: Concat(SeqOf(a), SeqOf(b)) is
// a * 1000003 + b, and Concat is associative (as ReduceByKey requires)
// but not commutative, so any change in fold order changes the result.

struct SeqHash {
  std::uint64_t h = 0;
  std::uint64_t pw = 1;  // 1000003^(ids hashed)
  friend bool operator==(const SeqHash&, const SeqHash&) = default;
};

SeqHash SeqOf(std::uint64_t id) { return {id, 1000003}; }

SeqHash Concat(const SeqHash& a, const SeqHash& b) {
  return {a.h * b.pw + b.h, a.pw * b.pw};
}

// Weights of Tuple<SeqSemiring> carry the SeqHash; ⊕ is Concat. (Not a
// commutative semiring: only a carrier that makes fold order visible.)
struct SeqSemiring {
  using ValueType = SeqHash;
  static SeqHash Zero() { return {}; }
  static SeqHash One() { return {}; }
  static SeqHash Plus(SeqHash a, SeqHash b) { return Concat(a, b); }
  static SeqHash Times(SeqHash a, SeqHash b) { return Concat(a, b); }
  static constexpr bool kIdempotentPlus = false;
  static constexpr const char* kName = "seq";
};

// Key returned by value.
struct ValueItem {
  Value key = 0;
  SeqHash seq;
  friend bool operator==(const ValueItem&, const ValueItem&) = default;
};
Value ValueItemKey(const ValueItem& x) { return x.key; }
void ConcatValueItem(ValueItem* acc, const ValueItem& x) {
  acc->seq = Concat(acc->seq, x.seq);
}

// Key returned by reference: the const Row& of a Tuple.
using SeqTuple = Tuple<SeqSemiring>;
const Row& SeqTupleKey(const SeqTuple& t) { return t.row; }
void ConcatSeqTuple(SeqTuple* acc, const SeqTuple& t) {
  acc->w = SeqSemiring::Plus(acc->w, t.w);
}

template <typename T, typename KeyFn, typename CombineFn>
struct StableOracle {
  std::vector<std::vector<T>> sorted;
  std::vector<std::vector<T>> grouped;
  std::vector<std::vector<T>> reduced;

  StableOracle(const std::vector<std::vector<T>>& input, int num_parts,
               KeyFn key_fn, CombineFn combine) {
    const auto by_key = [&](const T& a, const T& b) {
      return key_fn(a) < key_fn(b);
    };
    std::vector<T> all;
    for (const auto& part : input) {
      all.insert(all.end(), part.begin(), part.end());
    }
    std::stable_sort(all.begin(), all.end(), by_key);
    sorted = ScatterEvenly(all, num_parts).parts();

    // Equal-key runs [begin, end) of a key-sorted vector.
    const auto runs_of = [&](const std::vector<T>& v) {
      std::vector<std::pair<size_t, size_t>> runs;
      for (size_t i = 0; i < v.size();) {
        size_t j = i + 1;
        while (j < v.size() && !by_key(v[i], v[j])) ++j;
        runs.emplace_back(i, j);
        i = j;
      }
      return runs;
    };
    const auto chunk_of = [num_parts](size_t n) {
      return std::max<size_t>(1, (n + static_cast<size_t>(num_parts) - 1) /
                                     static_cast<size_t>(num_parts));
    };

    // Grouped: every run moves to the part holding its first item.
    grouped.resize(static_cast<size_t>(num_parts));
    for (const auto& [begin, end] : runs_of(all)) {
      auto& home = grouped[begin / chunk_of(all.size())];
      home.insert(home.end(), all.begin() + static_cast<std::ptrdiff_t>(begin),
                  all.begin() + static_cast<std::ptrdiff_t>(end));
    }

    // Reduced: one item per key, its items folded left to right in stable
    // order, placed where the key's run of per-part pre-aggregated entries
    // begins.
    std::vector<T> pre;
    for (const auto& part : input) {
      std::vector<T> local = part;
      std::stable_sort(local.begin(), local.end(), by_key);
      for (const auto& [begin, end] : runs_of(local)) {
        pre.push_back(local[begin]);
      }
    }
    std::stable_sort(pre.begin(), pre.end(), by_key);
    const auto pre_runs = runs_of(pre);
    const auto all_runs = runs_of(all);
    EXPECT_EQ(pre_runs.size(), all_runs.size());
    reduced.resize(static_cast<size_t>(num_parts));
    for (size_t k = 0; k < all_runs.size() && k < pre_runs.size(); ++k) {
      T acc = all[all_runs[k].first];
      for (size_t i = all_runs[k].first + 1; i < all_runs[k].second; ++i) {
        combine(&acc, all[i]);
      }
      reduced[pre_runs[k].first / chunk_of(pre.size())].push_back(acc);
    }
  }
};

template <typename T, typename KeyFn, typename CombineFn>
void ExpectDecoratedMatchesOracle(const std::vector<std::vector<T>>& input,
                                  int p, int num_parts, KeyFn key_fn,
                                  CombineFn combine, const std::string& label) {
  ThreadOverrideGuard guard;
  const StableOracle<T, KeyFn, CombineFn> oracle(
      input, num_parts == 0 ? p : num_parts, key_fn, combine);
  std::vector<Cluster::Stats> first;
  for (int threads : {1, 4}) {
    SetParallelForThreads(threads);
    const std::string where = label + " threads=" + std::to_string(threads);
    std::vector<Cluster::Stats> stats(3, Cluster::Stats{});
    {
      Cluster c(p);
      EXPECT_EQ(Sort(c, Dist<T>(input), key_fn, num_parts).parts(),
                oracle.sorted)
          << "Sort: " << where;
      stats[0] = c.stats();
    }
    {
      Cluster c(p);
      EXPECT_EQ(SortGroupedByKey(c, Dist<T>(input), key_fn, num_parts).parts(),
                oracle.grouped)
          << "SortGroupedByKey: " << where;
      stats[1] = c.stats();
    }
    {
      Cluster c(p);
      EXPECT_EQ(
          ReduceByKey(c, Dist<T>(input), key_fn, combine, num_parts).parts(),
          oracle.reduced)
          << "ReduceByKey: " << where;
      stats[2] = c.stats();
    }
    if (first.empty()) {
      first = stats;
      continue;
    }
    for (size_t i = 0; i < stats.size(); ++i) {
      EXPECT_EQ(stats[i].rounds, first[i].rounds) << where;
      EXPECT_EQ(stats[i].max_load, first[i].max_load) << where;
      EXPECT_EQ(stats[i].total_comm, first[i].total_comm) << where;
      EXPECT_EQ(stats[i].critical_path, first[i].critical_path) << where;
    }
  }
}

// Runs one input shape through both key kinds. Item i of the shape gets
// key keys[i] and the id i, so ties are told apart by where they started.
void ExpectShapeWithBothKeyKinds(const std::vector<std::vector<Value>>& keys,
                                 int p, int num_parts,
                                 const std::string& label) {
  std::vector<std::vector<ValueItem>> by_value;
  std::vector<std::vector<SeqTuple>> by_row;
  std::uint64_t id = 0;
  for (const auto& part : keys) {
    by_value.emplace_back();
    by_row.emplace_back();
    for (Value k : part) {
      by_value.back().push_back({k, SeqOf(id)});
      by_row.back().push_back({Row{k % 3, k}, SeqOf(id)});
      ++id;
    }
  }
  ExpectDecoratedMatchesOracle(by_value, p, num_parts, ValueItemKey,
                               ConcatValueItem, label + " (Value key)");
  ExpectDecoratedMatchesOracle(by_row, p, num_parts, SeqTupleKey,
                               ConcatSeqTuple, label + " (const Row& key)");
}

std::vector<std::vector<Value>> RandomKeys(const std::vector<int>& sizes,
                                           Value distinct,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Value>> keys;
  for (int size : sizes) {
    keys.emplace_back();
    for (int i = 0; i < size; ++i) {
      keys.back().push_back(rng.Uniform(0, distinct - 1));
    }
  }
  return keys;
}

TEST(DecoratedSortTest, MatchesStableOracleWithEmptyParts) {
  ExpectShapeWithBothKeyKinds(RandomKeys({37, 0, 120, 5, 0, 64}, 20, 41), 6,
                              0, "empty parts");
}

TEST(DecoratedSortTest, MatchesStableOracleOnAllEqualKeys) {
  ExpectShapeWithBothKeyKinds(RandomKeys({50, 50, 0, 50}, 1, 43), 4, 0,
                              "all equal");
}

TEST(DecoratedSortTest, MatchesStableOracleOnSinglePart) {
  ExpectShapeWithBothKeyKinds(RandomKeys({300}, 40, 47), 1, 0,
                              "single part");
  ExpectShapeWithBothKeyKinds(RandomKeys({300}, 40, 53), 4, 0,
                              "single input part");
}

TEST(DecoratedSortTest, MatchesStableOracleWithMoreOutputParts) {
  ExpectShapeWithBothKeyKinds(RandomKeys({90, 10, 200}, 30, 59), 4, 16,
                              "num_parts above input parts");
}

TEST(DecoratedSortTest, MatchesStableOracleWithFewerOutputParts) {
  ExpectShapeWithBothKeyKinds(RandomKeys({40, 70, 0, 25, 90, 60, 5, 33}, 12,
                                         61),
                              8, 3, "num_parts below input parts");
}

TEST(DecoratedSortTest, MatchesStableOracleAcrossSplitterChunks) {
  // Large enough that threads=4 merges the slot runs in splitter chunks.
  const auto keys = RandomKeys({3000, 2500, 0, 4100, 1800}, 500, 67);
  std::int64_t total = 0;
  for (const auto& part : keys) total += static_cast<std::int64_t>(part.size());
  ASSERT_GE(total, internal_primitives::kSplitterMergeMinTotal);
  ExpectShapeWithBothKeyKinds(keys, 8, 0, "splitter chunks");
}

TEST(DecoratedSortTest, EmptyInputYieldsEmptyParts) {
  ExpectShapeWithBothKeyKinds({{}, {}, {}}, 4, 0, "empty input");
}

// --- Zero-weight packing ----------------------------------------------------

TEST(ParallelPackingTest, ZeroWeightItemsRideAlongWithoutNewGroups) {
  Cluster c(2);
  std::vector<PackedItem> items = {{0, 0.6, -1}, {1, 0.0, -1}, {2, 0.4, -1},
                                   {3, 0.0, -1}, {4, 0.3, -1}, {5, 0.0, -1}};
  const double total = 0.6 + 0.4 + 0.3;
  auto packed = ParallelPacking(c, items);
  std::map<int, double> group_sum;
  for (const auto& it : packed) {
    ASSERT_GE(it.group, 0) << "item " << it.id << " left unassigned";
    group_sum[it.group] += it.weight;
  }
  for (const auto& [g, sum] : group_sum) EXPECT_LE(sum, 1.0 + 1e-9);
  EXPECT_LE(static_cast<double>(group_sum.size()), 1 + 2 * total)
      << "zero-weight items must not open groups of their own";
}

TEST(ParallelPackingTest, AllZeroWeightsShareOneGroup) {
  // m <= 1 + 2*sum(w) forces a single group when every weight is zero.
  Cluster c(2);
  std::vector<PackedItem> items = {{0, 0.0, -1}, {1, 0.0, -1}, {2, 0.0, -1}};
  auto packed = ParallelPacking(c, items);
  ASSERT_EQ(packed.size(), 3u);
  for (const auto& it : packed) EXPECT_EQ(it.group, 0);
}

// --- Consuming ReduceByKey overload -----------------------------------------

TEST(ReduceByKeyTest, ConsumingOverloadMatchesCopyingOverload) {
  Rng rng(9);
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  for (int i = 0; i < 600; ++i) {
    items.emplace_back(rng.Uniform(0, 29), rng.Uniform(1, 9));
  }
  auto in = ScatterEvenly(std::move(items), 5);
  const auto snapshot = in.parts();
  const auto key = [](const auto& kv) { return kv.first; };
  const auto add = [](auto* acc, const auto& kv) { acc->second += kv.second; };
  Cluster c_copy(5);
  auto copied = ReduceByKey(c_copy, in, key, add);
  EXPECT_EQ(in.parts(), snapshot) << "copying overload must keep input intact";
  Cluster c_move(5);
  auto moved = ReduceByKey(c_move, std::move(in), key, add);
  EXPECT_EQ(moved.parts(), copied.parts());
  EXPECT_EQ(c_move.stats().rounds, c_copy.stats().rounds);
  EXPECT_EQ(c_move.stats().max_load, c_copy.stats().max_load);
  EXPECT_EQ(c_move.stats().total_comm, c_copy.stats().total_comm);
  EXPECT_EQ(c_move.stats().critical_path, c_copy.stats().critical_path);
}

// --- Adversarial fix-round shapes -------------------------------------------
//
// Executable specification for both fix rounds, stated per item of the
// globally sorted array: an item's run home is the part (under
// ScatterEvenly's ceil(n/num_parts) chunking) holding the first element of
// its equal-key run; every item placed outside its run home charges one
// unit to the home; SortGroupedByKey relocates items to their run homes
// (in global order); ReduceByKey emits one combined item per key at the
// run home, after per-input-part pre-aggregation. Each shape is checked
// against this oracle, for charge parity (primitive stats = sort-only
// stats + exactly the oracle's fix round), and for bit-identical outputs
// and charges at thread counts 1 vs 4.

using KV = std::pair<std::int64_t, std::int64_t>;

std::int64_t KeyOfKV(const KV& kv) { return kv.first; }
bool KVByKey(const KV& a, const KV& b) { return a.first < b.first; }
void AddKV(KV* acc, const KV& kv) { acc->second += kv.second; }

struct ShapeTrace {
  std::vector<std::vector<KV>> grouped;
  std::vector<std::vector<KV>> reduced;
  Cluster::Stats grouped_stats;
  Cluster::Stats reduced_stats;
};

ShapeTrace RunShape(const std::vector<std::vector<KV>>& input, int p,
                    int num_parts, int threads) {
  SetParallelForThreads(threads);
  ShapeTrace trace;
  {
    Cluster c(p);
    trace.grouped =
        SortGroupedByKey(c, Dist<KV>(input), KeyOfKV, num_parts).parts();
    trace.grouped_stats = c.stats();
  }
  {
    Cluster c(p);
    trace.reduced =
        ReduceByKey(c, Dist<KV>(input), KeyOfKV, AddKV, num_parts).parts();
    trace.reduced_stats = c.stats();
  }
  return trace;
}

struct FixOracle {
  std::vector<std::vector<KV>> grouped;
  std::vector<std::vector<KV>> reduced;
  std::vector<std::int64_t> grouped_received;
  std::vector<std::int64_t> reduced_received;
  std::vector<std::vector<KV>> pre_parts;  // pre-aggregated input per part
};

FixOracle ComputeFixOracle(const std::vector<std::vector<KV>>& input,
                           int num_parts) {
  FixOracle o;
  o.grouped.resize(static_cast<size_t>(num_parts));
  o.reduced.resize(static_cast<size_t>(num_parts));
  o.grouped_received.assign(static_cast<size_t>(num_parts), 0);
  o.reduced_received.assign(static_cast<size_t>(num_parts), 0);

  std::vector<KV> all;
  for (const auto& part : input) {
    all.insert(all.end(), part.begin(), part.end());
  }
  std::stable_sort(all.begin(), all.end(), KVByKey);
  {
    const std::int64_t n = static_cast<std::int64_t>(all.size());
    const std::int64_t chunk = (n + num_parts - 1) / num_parts;
    std::int64_t i = 0;
    while (i < n) {
      std::int64_t j = i;
      while (j < n && all[static_cast<size_t>(j)].first ==
                          all[static_cast<size_t>(i)].first) {
        ++j;
      }
      const std::int64_t home = i / chunk;
      for (std::int64_t t = i; t < j; ++t) {
        o.grouped[static_cast<size_t>(home)].push_back(
            all[static_cast<size_t>(t)]);
        if (t / chunk != home) ++o.grouped_received[static_cast<size_t>(home)];
      }
      i = j;
    }
  }

  o.pre_parts.resize(input.size());
  std::vector<KV> pre_all;
  for (size_t s = 0; s < input.size(); ++s) {
    std::vector<KV> local = input[s];
    std::stable_sort(local.begin(), local.end(), KVByKey);
    auto& dst = o.pre_parts[s];
    for (const auto& kv : local) {
      if (!dst.empty() && dst.back().first == kv.first) {
        dst.back().second += kv.second;
      } else {
        dst.push_back(kv);
      }
    }
    pre_all.insert(pre_all.end(), dst.begin(), dst.end());
  }
  std::stable_sort(pre_all.begin(), pre_all.end(), KVByKey);
  {
    const std::int64_t n = static_cast<std::int64_t>(pre_all.size());
    const std::int64_t chunk = (n + num_parts - 1) / num_parts;
    std::int64_t i = 0;
    while (i < n) {
      std::int64_t j = i;
      KV folded = pre_all[static_cast<size_t>(i)];
      while (++j < n && pre_all[static_cast<size_t>(j)].first == folded.first) {
        folded.second += pre_all[static_cast<size_t>(j)].second;
      }
      const std::int64_t home = i / chunk;
      o.reduced[static_cast<size_t>(home)].push_back(folded);
      for (std::int64_t t = i; t < j; ++t) {
        if (t / chunk != home) ++o.reduced_received[static_cast<size_t>(home)];
      }
      i = j;
    }
  }
  return o;
}

Cluster::Stats SortOnlyStats(const std::vector<std::vector<KV>>& parts, int p,
                             int num_parts) {
  Cluster c(p);
  Sort(c, Dist<KV>(parts), KeyOfKV, num_parts);
  return c.stats();
}

// got must be sort_only plus exactly one fix round receiving `fix`
// (virtual-part loads, folded v mod p onto physical servers).
void ExpectSortPlusFixRound(const Cluster::Stats& got,
                            const Cluster::Stats& sort_only,
                            const std::vector<std::int64_t>& fix, int p) {
  std::vector<std::int64_t> physical(static_cast<size_t>(p), 0);
  for (size_t v = 0; v < fix.size(); ++v) {
    physical[v % static_cast<size_t>(p)] += fix[v];
  }
  std::int64_t fix_max = 0;
  std::int64_t fix_total = 0;
  for (std::int64_t load : physical) {
    fix_max = std::max(fix_max, load);
    fix_total += load;
  }
  EXPECT_EQ(got.rounds, sort_only.rounds + 1);
  EXPECT_EQ(got.total_comm, sort_only.total_comm + fix_total);
  EXPECT_EQ(got.max_load, std::max(sort_only.max_load, fix_max));
  EXPECT_EQ(got.critical_path, sort_only.critical_path + fix_max);
}

void ExpectStatsEq(const Cluster::Stats& a, const Cluster::Stats& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.max_load, b.max_load);
  EXPECT_EQ(a.total_comm, b.total_comm);
  EXPECT_EQ(a.critical_path, b.critical_path);
}

void ExpectShapeMatchesOracleAndThreads(
    const std::vector<std::vector<KV>>& input, int p, int num_parts) {
  ThreadOverrideGuard guard;
  const int resolved = num_parts == 0 ? p : num_parts;
  const ShapeTrace seq = RunShape(input, p, num_parts, 1);
  const ShapeTrace par = RunShape(input, p, num_parts, 4);
  SetParallelForThreads(0);
  EXPECT_EQ(par.grouped, seq.grouped) << "grouped output varies with threads";
  EXPECT_EQ(par.reduced, seq.reduced) << "reduced output varies with threads";
  ExpectStatsEq(par.grouped_stats, seq.grouped_stats);
  ExpectStatsEq(par.reduced_stats, seq.reduced_stats);
  const FixOracle oracle = ComputeFixOracle(input, resolved);
  EXPECT_EQ(seq.grouped, oracle.grouped);
  EXPECT_EQ(seq.reduced, oracle.reduced);
  ExpectSortPlusFixRound(seq.grouped_stats, SortOnlyStats(input, p, num_parts),
                         oracle.grouped_received, p);
  ExpectSortPlusFixRound(seq.reduced_stats,
                         SortOnlyStats(oracle.pre_parts, p, num_parts),
                         oracle.reduced_received, p);
}

TEST(FixRoundShapesTest, KeyRunsSpanningManyParts) {
  // 3 keys over 240 items on p=8 (chunk 30): every run covers >2 parts.
  Rng rng(21);
  std::vector<KV> items;
  for (int i = 0; i < 240; ++i) items.emplace_back(rng.Uniform(0, 2), i);
  auto in = ScatterEvenly(std::move(items), 8);
  ExpectShapeMatchesOracleAndThreads(in.parts(), 8, 0);
}

TEST(FixRoundShapesTest, MostlyEmptyLeadingInputParts) {
  // Input parts 0..5 empty; a dominant smallest key re-empties most
  // leading output parts after the fix (the shape whose per-item backward
  // walk used to be O(N*p)).
  std::vector<std::vector<KV>> input(8);
  for (int i = 0; i < 150; ++i) input[6].emplace_back(1, i);
  for (int i = 0; i < 30; ++i) input[7].emplace_back(2 + i % 5, 1000 + i);
  ExpectShapeMatchesOracleAndThreads(input, 8, 0);
}

TEST(FixRoundShapesTest, AllOneKeyCollapsesToOnePart) {
  std::vector<KV> items;
  for (int i = 0; i < 64; ++i) items.emplace_back(7, i);
  auto in = ScatterEvenly(std::move(items), 8);
  ExpectShapeMatchesOracleAndThreads(in.parts(), 8, 0);
}

TEST(FixRoundShapesTest, NumPartsAboveClusterP) {
  // 16 virtual parts on 4 physical servers: charges fold v mod p.
  Rng rng(31);
  std::vector<KV> items;
  for (int i = 0; i < 400; ++i) items.emplace_back(rng.Uniform(0, 9), i);
  auto in = ScatterEvenly(std::move(items), 4);
  ExpectShapeMatchesOracleAndThreads(in.parts(), 4, 16);
}

TEST(FixRoundShapesTest, NumPartsBelowClusterP) {
  Rng rng(33);
  std::vector<KV> items;
  for (int i = 0; i < 300; ++i) items.emplace_back(rng.Uniform(0, 5), i);
  auto in = ScatterEvenly(std::move(items), 8);
  ExpectShapeMatchesOracleAndThreads(in.parts(), 8, 3);
}

}  // namespace
}  // namespace mpc
}  // namespace parjoin
