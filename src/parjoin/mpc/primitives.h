// Deterministic MPC primitives (paper §2.1). All run in O(1) rounds with
// load O(N/p) for input size N, assuming N >= p^{1+eps}.
//
// Charging discipline: every primitive documents whether its cost is
//  * as-executed — the simulator moves the data and charges exactly what
//    each server receives; or
//  * modeled-linear — the known distributed realization has linear load
//    (citations in the paper), the simulator computes the answer centrally
//    and charges ceil(N/p) per server per round for the documented number
//    of rounds. Used only where the distributed-internal bookkeeping adds
//    nothing to the measured comparison (e.g. parallel packing).
//
// Sorting discipline: every step that orders tuples goes through one
// decorated sort core. Each part's items are decorated once with small
// {key, position} slots (the key by value, or by const pointer when the
// key projection returns a reference), the slots are sorted by (key,
// position), and the tuples themselves move only once: into their
// destination part (Sort) or into the pre-aggregated part (ReduceByKey).
// Because positions are unique, (key, position) order is exactly the
// stable order of the parts concatenated in part order.
//
// Threading discipline: hot loops whose iterations touch disjoint parts
// or disjoint key ranges run under ParallelFor — slot sorts and
// pre-aggregation per part, the splitter-partitioned chunks of the final
// slot merge, the per-destination gather of Sort, and the
// per-destination emission of the fix rounds (made independent by the
// per-part boundary summaries of SummarizeKeyRuns). Key/combine functors
// may be invoked concurrently across parts and must not mutate shared
// state. Outputs and charged loads are bit-identical for every thread
// count (PARJOIN_THREADS=1 included).

#ifndef PARJOIN_MPC_PRIMITIVES_H_
#define PARJOIN_MPC_PRIMITIVES_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "parjoin/common/logging.h"
#include "parjoin/common/parallel_for.h"
#include "parjoin/mpc/cluster.h"
#include "parjoin/mpc/dist.h"
#include "parjoin/mpc/exchange.h"

namespace parjoin {
namespace mpc {

namespace internal_primitives {

// One contiguous slice of a sorted run. Slices handed to MergeSpansInto
// are consumed: their elements are moved into the output.
template <typename T>
struct RunSpan {
  T* begin = nullptr;
  T* end = nullptr;
};

// Merges `spans` (sorted slices, in run order) into the output range
// starting at `out`, which must have room for the combined size, with a
// pairwise ladder: ties resolve to the lower span index, and within a span
// to the original order. owners[i] is empty or the storage spans[i] points
// into; the ladder frees it, and each merge buffer it makes, once that
// span is merged into the next level. Runs sequentially — MergeSortedRuns
// parallelizes across disjoint key ranges, not within one.
template <typename T, typename Less>
void MergeSpansInto(std::vector<RunSpan<T>> spans,
                    std::vector<std::vector<T>> owners, Less less, T* out) {
  CHECK_EQ(spans.size(), owners.size());
  // Dropping empty spans keeps the ladder shallow and cannot disturb tie
  // order: ties only resolve among spans that hold elements.
  size_t kept = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].begin == spans[i].end) continue;
    if (kept != i) {  // a self-move would free the storage
      spans[kept] = spans[i];
      owners[kept] = std::move(owners[i]);
    }
    ++kept;
  }
  spans.resize(kept);
  owners.resize(kept);
  // Moving a vector keeps its heap storage in place, so spans stay valid
  // while their owners move from level to level.
  while (spans.size() > 2) {
    const size_t pairs = spans.size() / 2;
    std::vector<RunSpan<T>> next;
    std::vector<std::vector<T>> next_owners;
    next.reserve(pairs + 1);
    next_owners.reserve(pairs + 1);
    for (size_t i = 0; i < pairs; ++i) {
      const RunSpan<T>& a = spans[2 * i];
      const RunSpan<T>& b = spans[2 * i + 1];
      std::vector<T> merged;
      merged.reserve(
          static_cast<size_t>((a.end - a.begin) + (b.end - b.begin)));
      std::merge(std::make_move_iterator(a.begin),
                 std::make_move_iterator(a.end),
                 std::make_move_iterator(b.begin),
                 std::make_move_iterator(b.end),
                 std::back_inserter(merged), less);
      owners[2 * i] = std::vector<T>();
      owners[2 * i + 1] = std::vector<T>();
      next.push_back({merged.data(), merged.data() + merged.size()});
      next_owners.push_back(std::move(merged));
    }
    if (spans.size() % 2 == 1) {
      next.push_back(spans.back());
      next_owners.push_back(std::move(owners.back()));
    }
    spans = std::move(next);
    owners = std::move(next_owners);
  }
  if (spans.size() == 1) {
    std::move(spans[0].begin, spans[0].end, out);
  } else if (spans.size() == 2) {
    std::merge(std::make_move_iterator(spans[0].begin),
               std::make_move_iterator(spans[0].end),
               std::make_move_iterator(spans[1].begin),
               std::make_move_iterator(spans[1].end), out, less);
  }
}

// Below this many elements the splitter partition costs more than it
// saves; MergeSortedRuns merges everything as one chunk.
inline constexpr std::int64_t kSplitterMergeMinTotal = 1 << 13;

// Merges sorted runs into one globally sorted vector, reproducing exactly
// the order a stable sort of the run-order concatenation would produce
// (ties resolve to the lower run index, and within a run to the original
// order). Elements are moved, never copied.
//
// With threads > 1 and at least kSplitterMergeMinTotal elements the merge
// is split by splitter partitioning: sample the runs at a fixed stride
// (sample density follows run length), sort the sample, pick ~4·threads
// chunk boundaries from it, cut every run at every boundary with
// lower_bound, and merge the resulting disjoint chunks concurrently under
// ParallelFor, each chunk's ladder writing directly into its exact output
// slice. Otherwise there is one chunk and no sample, and that chunk's
// ladder frees the runs as it consumes them.
//
// Every cut for one boundary is a lower_bound of the same splitter value,
// so a group of equal keys is never split across chunks: each chunk's
// ladder sees every tie it must order, and the concatenation of chunks is
// the unique stable order of the run concatenation. The output therefore
// depends on neither the splitter choice nor the thread count; only the
// internal work division does. Requires T to be default-constructible
// (the output buffer is preallocated and filled by move-assignment).
template <typename T, typename Less>
std::vector<T> MergeSortedRuns(std::vector<std::vector<T>> runs, Less less) {
  std::int64_t total = 0;
  for (const auto& r : runs) total += static_cast<std::int64_t>(r.size());
  const int threads = ParallelForThreads();

  // Oversampled splitter selection: 8 candidates per target chunk keep
  // chunk sizes near total/chunks even when run lengths are skewed.
  std::vector<const T*> sample;
  int chunks = 1;
  if (threads > 1 && total >= kSplitterMergeMinTotal) {
    const std::int64_t want_chunks = 4 * static_cast<std::int64_t>(threads);
    const std::int64_t stride =
        std::max<std::int64_t>(1, total / (8 * want_chunks));
    sample.reserve(static_cast<size_t>(total / stride + 1));
    for (const auto& r : runs) {
      const std::int64_t r_size = static_cast<std::int64_t>(r.size());
      for (std::int64_t i = stride - 1; i < r_size; i += stride) {
        sample.push_back(&r[static_cast<size_t>(i)]);
      }
    }
    std::sort(sample.begin(), sample.end(),
              [&](const T* a, const T* b) { return less(*a, *b); });
    // (Equal-key sample permutations are irrelevant: splitters act only
    // through lower_bound, which sees values, not sample positions.)
    chunks = static_cast<int>(std::min(
        want_chunks, static_cast<std::int64_t>(sample.size()) + 1));
  }
  const int nruns = static_cast<int>(runs.size());

  // cut[b][r]: number of elements of run r that precede chunk b; row 0 is
  // all zeros, row `chunks` is the run sizes. Monotone in b because the
  // splitters are sorted.
  std::vector<std::vector<std::int64_t>> cut(
      static_cast<size_t>(chunks) + 1,
      std::vector<std::int64_t>(static_cast<size_t>(nruns), 0));
  for (int r = 0; r < nruns; ++r) {
    cut[static_cast<size_t>(chunks)][static_cast<size_t>(r)] =
        static_cast<std::int64_t>(runs[static_cast<size_t>(r)].size());
  }
  ParallelFor(chunks - 1, [&](int i) {
    const size_t b = static_cast<size_t>(i) + 1;
    const T& splitter =
        *sample[b * sample.size() / static_cast<size_t>(chunks)];
    for (int r = 0; r < nruns; ++r) {
      const auto& run = runs[static_cast<size_t>(r)];
      cut[b][static_cast<size_t>(r)] =
          std::lower_bound(run.begin(), run.end(), splitter, less) -
          run.begin();
    }
  });
  std::vector<std::int64_t> offset(static_cast<size_t>(chunks) + 1, 0);
  for (int b = 1; b <= chunks; ++b) {
    std::int64_t sum = 0;
    for (int r = 0; r < nruns; ++r) {
      sum += cut[static_cast<size_t>(b)][static_cast<size_t>(r)];
    }
    offset[static_cast<size_t>(b)] = sum;
  }

  std::vector<T> out(static_cast<size_t>(total));
  ParallelFor(chunks, [&](int c) {
    const size_t b = static_cast<size_t>(c);
    std::vector<RunSpan<T>> spans;
    spans.reserve(static_cast<size_t>(nruns));
    for (int r = 0; r < nruns; ++r) {
      T* base = runs[static_cast<size_t>(r)].data();
      spans.push_back({base + cut[b][static_cast<size_t>(r)],
                       base + cut[b + 1][static_cast<size_t>(r)]});
    }
    // A lone chunk spans whole runs and may free them; chunks that share
    // runs leave them to this function.
    MergeSpansInto(std::move(spans),
                   chunks == 1 ? std::move(runs)
                               : std::vector<std::vector<T>>(
                                     static_cast<size_t>(nruns)),
                   less, out.data() + offset[b]);
  });
  return out;
}

// --- The decorated sort core -----------------------------------------------
//
// A slot stands for one item: its sort key and its position (part, index)
// in the input Dist. Slots order by (key, position); positions are
// unique, so that order is total and equals the stable order of the
// parts concatenated in part order. A key projection that returns a
// reference (e.g. `const Row&`) is held by const pointer into the input,
// so slots stay small and no key is copied; any other key is held by
// value. Either way the input must stay in place while its slots are in
// use.
template <typename Key, bool kByRef>
struct KeySlot {
  std::conditional_t<kByRef, const Key*, Key> held{};
  std::uint64_t pos = 0;  // part << kSlotIndexBits | index

  const Key& key() const {
    if constexpr (kByRef) {
      return *held;
    } else {
      return held;
    }
  }
  friend bool operator<(const KeySlot& a, const KeySlot& b) {
    if (a.key() < b.key()) return true;
    if (b.key() < a.key()) return false;
    return a.pos < b.pos;
  }
};

// Field widths of KeySlot::pos: the low bits hold the index within the
// part, the high bits the part.
inline constexpr int kSlotIndexBits = 40;
inline constexpr std::uint64_t kSlotIndexMask =
    (std::uint64_t{1} << kSlotIndexBits) - 1;
inline constexpr std::int64_t kSlotMaxParts = std::int64_t{1}
                                              << (64 - kSlotIndexBits);

template <typename T, typename KeyFn>
using KeyResult = decltype(std::declval<KeyFn&>()(std::declval<const T&>()));

template <typename T, typename KeyFn>
using SlotFor = KeySlot<std::decay_t<KeyResult<T, KeyFn>>,
                        std::is_lvalue_reference_v<KeyResult<T, KeyFn>>>;

inline int SlotPart(std::uint64_t pos) {
  return static_cast<int>(pos >> kSlotIndexBits);
}
inline size_t SlotIndex(std::uint64_t pos) {
  return static_cast<size_t>(pos & kSlotIndexMask);
}

// Decorates part `s` of `in` and sorts its slots by (key, position): the
// slot run of that part. A part count or part size beyond the field
// widths would wrap a position and silently reorder ties, so both are
// checked.
template <typename T, typename KeyFn>
std::vector<SlotFor<T, KeyFn>> SortedSlots(const Dist<T>& in, int s,
                                           KeyFn& key_fn) {
  CHECK_LE(static_cast<std::int64_t>(in.num_parts()), kSlotMaxParts)
      << "sort input has more parts than a slot position can encode";
  const std::vector<T>& part = in.part(s);
  CHECK_LE(static_cast<std::uint64_t>(part.size()), kSlotIndexMask + 1)
      << "sort input part " << s
      << " has more items than a slot position can encode";
  std::vector<SlotFor<T, KeyFn>> slots(part.size());
  const std::uint64_t base = static_cast<std::uint64_t>(s) << kSlotIndexBits;
  for (size_t i = 0; i < part.size(); ++i) {
    if constexpr (std::is_lvalue_reference_v<KeyResult<T, KeyFn>>) {
      slots[i].held = &key_fn(part[i]);
    } else {
      slots[i].held = key_fn(part[i]);
    }
    slots[i].pos = base | i;
  }
  std::sort(slots.begin(), slots.end());
  return slots;
}

// Per-part boundary summary of a key-sorted Dist: the precomputation that
// lets the SortGroupedByKey/ReduceByKey fix rounds emit every destination
// part independently (and therefore threaded) instead of walking all
// earlier parts. head_home[s] names the part where the key run containing
// part s's *first* item begins — only the leading run of a part can
// belong to an earlier part, because the data is globally sorted. A run
// spanning parts t..u forces every part strictly between t and u to be
// single-key, so head_home is a chain computable in O(p) from first/last
// keys alone.
template <typename Key>
struct KeyRunSummary {
  // All vectors are indexed by part. nonempty is char, not bool: the
  // entries are written concurrently and std::vector<bool> packs bits.
  std::vector<char> nonempty;
  std::vector<Key> first_key;
  std::vector<Key> last_key;
  std::vector<std::int64_t> leading_len;  // items equal to first_key
  std::vector<int> head_home;
};

template <typename T, typename KeyFn>
auto SummarizeKeyRuns(const Dist<T>& sorted, KeyFn key_fn) {
  using Key = std::decay_t<decltype(key_fn(std::declval<const T&>()))>;
  const int parts = sorted.num_parts();
  KeyRunSummary<Key> sum;
  sum.nonempty.assign(static_cast<size_t>(parts), 0);
  sum.first_key.resize(static_cast<size_t>(parts));
  sum.last_key.resize(static_cast<size_t>(parts));
  sum.leading_len.assign(static_cast<size_t>(parts), 0);
  sum.head_home.resize(static_cast<size_t>(parts));
  ParallelFor(parts, [&](int s) {
    const auto& part = sorted.part(s);
    if (part.empty()) return;
    const size_t idx = static_cast<size_t>(s);
    sum.nonempty[idx] = 1;
    sum.first_key[idx] = key_fn(part.front());
    sum.last_key[idx] = key_fn(part.back());
    std::int64_t len = 1;
    while (len < static_cast<std::int64_t>(part.size()) &&
           key_fn(part[static_cast<size_t>(len)]) == sum.first_key[idx]) {
      ++len;
    }
    sum.leading_len[idx] = len;
  });
  int prev = -1;  // previous non-empty part
  for (int s = 0; s < parts; ++s) {
    const size_t idx = static_cast<size_t>(s);
    sum.head_home[idx] = s;
    if (sum.nonempty[idx] == 0) continue;
    if (prev >= 0 &&
        sum.last_key[static_cast<size_t>(prev)] == sum.first_key[idx]) {
      // The run continues from prev. If prev is single-key the run began
      // even earlier and prev's head_home already names where.
      const size_t pidx = static_cast<size_t>(prev);
      sum.head_home[idx] = sum.first_key[pidx] == sum.last_key[pidx]
                               ? sum.head_home[pidx]
                               : prev;
    }
    prev = s;
  }
  return sum;
}

// The fix round's charge: every item of a leading run that continues an
// earlier part's run ships one unit to the run's home part.
template <typename Key>
std::vector<std::int64_t> FixRoundReceived(const KeyRunSummary<Key>& runs) {
  const size_t parts = runs.head_home.size();
  std::vector<std::int64_t> received(parts, 0);
  for (size_t s = 0; s < parts; ++s) {
    if (runs.nonempty[s] != 0 && runs.head_home[s] != static_cast<int>(s)) {
      received[static_cast<size_t>(runs.head_home[s])] += runs.leading_len[s];
    }
  }
  return received;
}

}  // namespace internal_primitives

// --- Sorting [Goodrich '99] -------------------------------------------------
//
// Redistributes items so that part i holds the i-th contiguous chunk of the
// globally sorted order, chunks of size ceil(N/num_parts). As-executed
// charge: each part receives its chunk (one round; the real algorithm's
// splitter-sampling rounds move asymptotically less data).
//
// KeyFn: T -> K (K ordered by operator<). Ties keep input order: items
// with equal keys stay in the order of the parts concatenated in part
// order.
//
// Execution: the decorated sort core. Each part's {key, position} slots
// are sorted independently (threaded via ParallelFor), the splitter-based
// multiway merge rebuilds the global slot order (disjoint key-range
// chunks merged concurrently), and a ParallelFor over destination parts
// moves each tuple once, straight from its input part into part
// rank / ceil(N/num_parts). The result — data, placement, and charged
// loads — is bit-identical for any thread count, including the fully
// sequential PARJOIN_THREADS=1 path.
// Consumes its input: pass std::move(dist) to avoid copying the parts.
template <typename T, typename KeyFn>
Dist<T> Sort(Cluster& cluster, Dist<T> in, KeyFn key_fn, int num_parts = 0) {
  TraceScope trace(cluster, "sort");
  if (num_parts == 0) num_parts = cluster.p();
  CHECK_GT(num_parts, 0);
  using Slot = internal_primitives::SlotFor<T, KeyFn>;
  std::vector<std::vector<Slot>> runs(static_cast<size_t>(in.num_parts()));
  ParallelFor(in.num_parts(), [&](int s) {
    runs[static_cast<size_t>(s)] =
        internal_primitives::SortedSlots(in, s, key_fn);
  });
  const std::vector<Slot> order = internal_primitives::MergeSortedRuns(
      std::move(runs), [](const Slot& a, const Slot& b) { return a < b; });

  // Destination t receives ranks [t·chunk, (t+1)·chunk) of the order,
  // ScatterEvenly's placement. Every rank names a distinct input item, so
  // the destinations move from disjoint items.
  const std::int64_t n = static_cast<std::int64_t>(order.size());
  const std::int64_t chunk = (n + num_parts - 1) / num_parts;
  Dist<T> out(num_parts);
  ParallelFor(num_parts, [&](int t) {
    const std::int64_t begin = std::min(n, t * chunk);
    const std::int64_t end = std::min(n, begin + chunk);
    auto& dst = out.part(t);
    dst.reserve(static_cast<size_t>(end - begin));
    for (std::int64_t r = begin; r < end; ++r) {
      const std::uint64_t pos = order[static_cast<size_t>(r)].pos;
      dst.push_back(std::move(in.part(internal_primitives::SlotPart(pos))
                                  [internal_primitives::SlotIndex(pos)]));
    }
  });
  std::vector<std::int64_t> received(static_cast<size_t>(num_parts), 0);
  for (int s = 0; s < num_parts; ++s) {
    received[static_cast<size_t>(s)] =
        static_cast<std::int64_t>(out.part(s).size());
  }
  cluster.ChargeRound(received);
  return out;
}

// Sorts by a key projection and then moves every run of equal keys entirely
// onto the part where the run begins (the paper's "tuples with the same
// value land on the same server or two consecutive servers; in the latter
// case use another round" fix, generalized to runs spanning several parts).
// As-executed: the sort round plus one fix round charging the moved tuples.
// Only sensible when every key group fits on a server (callers guarantee
// this, e.g. LinearSparseMM where degrees are < N/p).
// Consumes its input: pass std::move(dist) to avoid copying the parts.
template <typename T, typename KeyFn>
Dist<T> SortGroupedByKey(Cluster& cluster, Dist<T> in, KeyFn key_fn,
                         int num_parts = 0) {
  TraceScope trace(cluster, "sort_grouped");
  if (num_parts == 0) num_parts = cluster.p();
  Dist<T> sorted = Sort(cluster, std::move(in), key_fn, num_parts);

  // Fix round: a key run that starts in part s is moved entirely to part
  // s. The boundary summary pins down every move — only a part's leading
  // run can belong to an earlier part — so destination t's output is its
  // own items minus a forwarded leading run, plus the leading runs of the
  // later parts whose head_home is t. Destinations touch disjoint slices
  // of `sorted`, so emission runs under ParallelFor; the ledger charge is
  // identical to the old per-item walk (each moved tuple charges one unit
  // to the run's home).
  const auto runs = internal_primitives::SummarizeKeyRuns(sorted, key_fn);
  Dist<T> out(num_parts);
  ParallelFor(num_parts, [&](int t) {
    const size_t tdx = static_cast<size_t>(t);
    if (runs.nonempty[tdx] == 0) return;
    // Later parts whose leading run starts here: a chain of single-key
    // parts homed at t, closed by the part where the run ends. At most
    // one destination's chain is alive at any source part, so the scans
    // total O(p) across all destinations.
    std::vector<int> feeders;
    std::int64_t incoming = 0;
    for (int s = t + 1; s < num_parts; ++s) {
      const size_t sdx = static_cast<size_t>(s);
      if (runs.nonempty[sdx] == 0) continue;
      if (runs.head_home[sdx] != t) break;
      feeders.push_back(s);
      incoming += runs.leading_len[sdx];
      if (!(runs.first_key[sdx] == runs.last_key[sdx])) break;
    }
    auto& src = sorted.part(t);
    const std::int64_t keep_from =
        runs.head_home[tdx] != t ? runs.leading_len[tdx] : 0;
    auto& dst = out.part(t);
    dst.reserve(static_cast<size_t>(
        static_cast<std::int64_t>(src.size()) - keep_from + incoming));
    dst.insert(dst.end(), std::make_move_iterator(src.begin() + keep_from),
               std::make_move_iterator(src.end()));
    for (int s : feeders) {
      auto& fsrc = sorted.part(s);
      dst.insert(dst.end(), std::make_move_iterator(fsrc.begin()),
                 std::make_move_iterator(
                     fsrc.begin() +
                     runs.leading_len[static_cast<size_t>(s)]));
    }
  });
  cluster.ChargeRound(internal_primitives::FixRoundReceived(runs));
  return out;
}

// --- Reduce-by-key [Hu, Tao, Yi '17] ---------------------------------------
//
// Computes the "sum" (any associative, commutative combine) of values per
// key. As-executed: local pre-aggregation (free), a sort of the
// pre-aggregated items (load M/num_parts for M <= N locally-distinct
// items), and a boundary-merge fix round.
//
// KeyFn:      T -> K (K ordered and equality-comparable)
// CombineFn:  (T* accumulator, const T& item) merges item into accumulator.
//             Must be associative: the fix round folds each part locally
//             before merging run continuations into the run's home part.
//             Each key's items combine left to right in input order.
//
// Execution: each part's items are folded in the order of its sorted
// {key, position} slots (the decorated sort core; no tuple is sorted),
// the pre-aggregated parts go through Sort, and the fix round folds every
// sorted part in place and hands it on as the output part. Threaded per
// part throughout; bit-identical for any thread count.
//
// This overload consumes its input (items are moved out during
// pre-aggregation); pass std::move(dist) to select it. A copying overload
// for callers that still need the input follows below.
template <typename T, typename KeyFn, typename CombineFn>
Dist<T> ReduceByKey(Cluster& cluster, Dist<T>&& in, KeyFn key_fn,
                    CombineFn combine, int num_parts = 0) {
  TraceScope trace(cluster, "reduce_by_key");
  if (num_parts == 0) num_parts = cluster.p();

  // Local pre-aggregation: decorate and sort each part's slots, then fold
  // the items in slot order — adjacent equal keys combine left to right
  // in input order, and each item moves at most once. Parts are
  // independent, so the pass is threaded.
  Dist<T> pre(in.num_parts());
  ParallelFor(in.num_parts(), [&](int s) {
    const auto slots = internal_primitives::SortedSlots(in, s, key_fn);
    auto& local = in.part(s);
    auto& out_part = pre.part(s);
    size_t distinct = 0;
    for (size_t i = 0; i < slots.size(); ++i) {
      if (i == 0 || slots[i - 1].key() < slots[i].key()) ++distinct;
    }
    out_part.reserve(distinct);
    for (const auto& slot : slots) {
      T& item = local[internal_primitives::SlotIndex(slot.pos)];
      if (!out_part.empty() && key_fn(out_part.back()) == key_fn(item)) {
        combine(&out_part.back(), item);
      } else {
        out_part.push_back(std::move(item));
      }
    }
    local.clear();
    local.shrink_to_fit();
  });

  // Global sort of pre-aggregated items.
  Dist<T> sorted = Sort(cluster, std::move(pre), key_fn, num_parts);

  // Fix round, in place. First every part folds its items (adjacent
  // equals combine left to right; threaded, parts are independent). A
  // leading run that continues an earlier part's run folds into lead[s]
  // instead, and the rest of the part compacts to its front. Then every
  // run home absorbs the lead entries of the later parts homed at it, in
  // part order: destinations write only their own last item and read
  // only lead entries, so this pass is threaded too. The charge: every
  // raw item of a leading run that continues an earlier part's run ships
  // one unit to the run's home.
  const auto runs = internal_primitives::SummarizeKeyRuns(sorted, key_fn);
  Dist<T> lead(num_parts);  // at most one item per part
  ParallelFor(num_parts, [&](int s) {
    const size_t sdx = static_cast<size_t>(s);
    auto& items = sorted.part(s);
    size_t i = 0;
    if (runs.nonempty[sdx] != 0 && runs.head_home[sdx] != s) {
      auto& acc = lead.part(s);
      acc.push_back(std::move(items[0]));
      for (i = 1; i < static_cast<size_t>(runs.leading_len[sdx]); ++i) {
        combine(&acc.back(), items[i]);
      }
    }
    size_t kept = 0;
    for (; i < items.size(); ++i) {
      if (kept > 0 && key_fn(items[kept - 1]) == key_fn(items[i])) {
        combine(&items[kept - 1], items[i]);
      } else {
        if (kept != i) items[kept] = std::move(items[i]);
        ++kept;
      }
    }
    items.erase(items.begin() + static_cast<std::ptrdiff_t>(kept),
                items.end());
  });
  ParallelFor(num_parts, [&](int t) {
    auto& dst = sorted.part(t);
    if (dst.empty()) return;  // fully forwarded; no later part homes here
    // Same chain walk as SortGroupedByKey: O(p) total across
    // destinations.
    for (int s = t + 1; s < num_parts; ++s) {
      const size_t sdx = static_cast<size_t>(s);
      if (runs.nonempty[sdx] == 0) continue;
      if (runs.head_home[sdx] != t) break;
      combine(&dst.back(), lead.part(s).front());
      if (!(runs.first_key[sdx] == runs.last_key[sdx])) break;
    }
  });
  cluster.ChargeRound(internal_primitives::FixRoundReceived(runs));
  return sorted;
}

// Copying overload: keeps the caller's Dist intact at the price of one
// copy of every part. Prefer std::move(dist) where the input is dead.
template <typename T, typename KeyFn, typename CombineFn>
Dist<T> ReduceByKey(Cluster& cluster, const Dist<T>& in, KeyFn key_fn,
                    CombineFn combine, int num_parts = 0) {
  return ReduceByKey(cluster, Dist<T>(in.parts()), key_fn, combine,
                     num_parts);
}

// --- Parallel packing [Hu & Yi '19] ----------------------------------------
//
// Given weights 0 <= w_i <= 1, groups the ids into m sets with per-set sum
// <= 1 and (all but one set) sum >= 1/2; m <= 1 + 2*sum(w). Modeled-linear:
// the answer is computed centrally and two rounds of ceil(N/p) are charged
// (the distributed realization is a prefix-sum + interval assignment).
// Returns group ids aligned with `items`; ids are dense in [0, m).
struct PackedItem {
  std::int64_t id = 0;
  double weight = 0;
  int group = -1;
};

inline std::vector<PackedItem> ParallelPacking(
    Cluster& cluster, std::vector<PackedItem> items) {
  TraceScope trace(cluster, "packing");
  const std::int64_t n = static_cast<std::int64_t>(items.size());
  cluster.ChargeUniformRound((n + cluster.p() - 1) / cluster.p());
  cluster.ChargeUniformRound((n + cluster.p() - 1) / cluster.p());

  std::stable_sort(items.begin(), items.end(),
                   [](const PackedItem& a, const PackedItem& b) {
                     return a.weight > b.weight;
                   });
  int next_group = 0;
  double current_sum = 0;
  int current_group = -1;
  for (auto& item : items) {
    CHECK_GE(item.weight, 0.0);
    CHECK_LE(item.weight, 1.0 + 1e-12);
    if (item.weight <= 0.0) {
      // Zero-weight items (e.g. empty arm groups) ride along in the most
      // recent group: they add nothing to its sum and must not open a
      // group of their own, which would break m <= 1 + 2*sum(w). They
      // sort last, so a group exists unless every weight is zero.
      if (next_group == 0) next_group = 1;
      item.group = current_group >= 0 ? current_group : next_group - 1;
      continue;
    }
    if (item.weight >= 0.5) {
      item.group = next_group++;
      continue;
    }
    if (current_group < 0 || current_sum + item.weight > 1.0) {
      current_group = next_group++;
      current_sum = 0;
    }
    item.group = current_group;
    current_sum += item.weight;
    if (current_sum > 0.5) current_group = -1;  // group is full enough
  }
  return items;
}

// --- Multi-search / predecessor [Hu, Tao, Yi '17] ---------------------------
//
// For each x in X, finds the largest y in Y with y <= x (or kNoPredecessor).
// Modeled-linear: two rounds of ceil((|X|+|Y|)/p). (The distributed
// realization co-sorts X and Y and propagates run heads.)
inline constexpr std::int64_t kNoPredecessor =
    std::numeric_limits<std::int64_t>::min();

std::vector<std::int64_t> MultiSearch(Cluster& cluster,
                                      const std::vector<std::int64_t>& xs,
                                      std::vector<std::int64_t> ys);

}  // namespace mpc
}  // namespace parjoin

#endif  // PARJOIN_MPC_PRIMITIVES_H_
