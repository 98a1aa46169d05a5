// Tests for the unified query engine: the parallel self-join must be
// byte-identical to the sequential path in all four domains (pairs and
// merged counters), every adapter's ranged Search and JoinProbe must
// keep the unbounded answer inside the range, SearchBatch must preserve
// input order, degenerate collections must not trip the pool, and
// ThreadPool must cover its range exactly once.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api_test_util.h"
#include "common/thread_pool.h"
#include "datagen/binary_vectors.h"
#include "datagen/graphs.h"
#include "datagen/strings.h"
#include "datagen/token_sets.h"
#include "shard/partitioner.h"

namespace pigeonring::engine {
namespace {

// Joins with 2 and 4 threads (small chunks, to force interleaving) and
// checks pairs and merged deterministic counters against the sequential
// run. Timing fields are excluded: wall clock is never deterministic.
template <Searcher S>
void ExpectParallelJoinMatchesSequential(S& adapter) {
  Executor executor;
  const ExecutionContext sequential(executor, {});
  JoinStats seq_stats;
  const auto seq = SelfJoin(adapter, sequential, &seq_stats);
  for (int threads : {2, 4}) {
    ExecutionOptions options;
    options.num_threads = threads;
    options.chunk = 3;
    const ExecutionContext parallel(executor, options);
    JoinStats par_stats;
    const auto par = SelfJoin(adapter, parallel, &par_stats);
    EXPECT_EQ(par, seq) << "pairs diverged at " << threads << " threads";
    EXPECT_EQ(par_stats.pairs, seq_stats.pairs);
    EXPECT_EQ(par_stats.candidates, seq_stats.candidates);
  }
}

std::vector<BitVector> MakeVectors(int n, uint64_t seed) {
  datagen::BinaryVectorConfig config;
  config.dimensions = 64;
  config.num_objects = n;
  config.num_clusters = 20;
  config.cluster_fraction = 0.6;
  config.flip_rate = 0.05;
  config.seed = seed;
  return datagen::GenerateBinaryVectors(config);
}

TEST(EngineTest, HammingParallelJoinDeterministic) {
  HammingAdapter adapter(hamming::HammingSearcher(MakeVectors(400, 71), 4),
                         8, 3);
  ExpectParallelJoinMatchesSequential(adapter);
}

TEST(EngineTest, SetParallelJoinDeterministic) {
  datagen::TokenSetConfig config;
  config.num_records = 400;
  config.avg_tokens = 12;
  config.universe_size = 900;
  config.duplicate_fraction = 0.4;
  config.seed = 73;
  setsim::SetCollection collection(datagen::GenerateTokenSets(config));
  SetAdapter adapter(setsim::PkwiseSearcher(&collection, 0.7, 5),
                     &collection, 2);
  ExpectParallelJoinMatchesSequential(adapter);
}

TEST(EngineTest, EditParallelJoinDeterministic) {
  datagen::StringConfig config;
  config.num_records = 300;
  config.avg_length = 14;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 2;
  config.seed = 79;
  const auto data = datagen::GenerateStrings(config);
  EditAdapter adapter(editdist::EditDistanceSearcher(&data, 2, 2), &data,
                      editdist::EditFilter::kRing, 3);
  ExpectParallelJoinMatchesSequential(adapter);
}

TEST(EngineTest, EditFastParallelJoinDeterministic) {
  datagen::StringConfig config;
  config.num_records = 300;
  config.fixed_length = 14;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 2;
  config.seed = 79;
  const auto data = datagen::GenerateStrings(config);
  EditFastAdapter adapter(editdist::CaseDecSearcher(&data, 2), &data, 3);
  ExpectParallelJoinMatchesSequential(adapter);
}

TEST(EngineTest, EditFastJoinMatchesPivotalJoin) {
  // The fast-path adapter and the pivotal adapter must produce the same
  // unordered pair set over the same fixed-length collection.
  datagen::StringConfig config;
  config.num_records = 250;
  config.fixed_length = 12;
  config.duplicate_fraction = 0.5;
  config.max_perturb_edits = 3;
  config.seed = 101;
  const auto data = datagen::GenerateStrings(config);
  EditAdapter pivotal(editdist::EditDistanceSearcher(&data, 3, 2), &data,
                      editdist::EditFilter::kRing, 3);
  EditFastAdapter fast(editdist::CaseDecSearcher(&data, 3), &data, 3);
  Executor executor;
  const ExecutionContext sequential(executor, {});
  const auto expected = SelfJoin(pivotal, sequential);
  const auto got = SelfJoin(fast, sequential);
  EXPECT_EQ(got, expected);
}

TEST(EngineTest, GraphParallelJoinDeterministic) {
  datagen::GraphConfig config;
  config.num_graphs = 120;
  config.avg_vertices = 8;
  config.avg_edges = 9;
  config.vertex_labels = 8;
  config.duplicate_fraction = 0.4;
  config.max_perturb_ops = 2;
  config.seed = 83;
  const auto data = datagen::GenerateGraphs(config);
  GraphAdapter adapter(graphed::GraphSearcher(&data, 2), &data,
                       graphed::GraphFilter::kRing, 2);
  ExpectParallelJoinMatchesSequential(adapter);
}

TEST(EngineTest, JoinCandidatesCountBoundedProbes) {
  auto objects = MakeVectors(200, 91);
  HammingAdapter adapter(hamming::HammingSearcher(objects, 4), 8, 3);
  // Expected: the candidates of each record's half-probe, which sees only
  // the ids below it. A full probe over the whole collection (its hit on
  // itself excluded) counts every candidate pair from both ends.
  HammingAdapter probe_copy = adapter;
  int64_t expected = 0;
  int64_t full_probes = 0;
  for (int i = 0; i < adapter.size(); ++i) {
    QueryStats stats;
    probe_copy.JoinProbe(i, &stats);
    expected += stats.candidates;
    QueryStats full;
    const auto ids = probe_copy.Search(probe_copy.query(i), &full);
    full_probes += full.candidates - std::count(ids.begin(), ids.end(), i);
  }
  Executor executor;
  JoinStats stats;
  SelfJoin(adapter, ExecutionContext(executor, {}), &stats);
  EXPECT_EQ(stats.candidates, expected);
  EXPECT_LT(stats.candidates, full_probes);
}

// The id range's contract on one adapter (common/id_limit.h). For each
// probe query:
//  * for every limit L in [0, n], Search(q, &s, [0, L)) returns the
//    unbounded ids below L, and the candidate count starts at 0, grows by
//    0 or 1 from L to L + 1 and reaches the unbounded count at L = n;
//  * for a sweep of ranges [lo, hi), Search returns exactly the unbounded
//    ids inside the range;
//  * over the 4-way shard cut of [0, n), the ranges' ids concatenate to the
//    unbounded ids and their integral counters sum to the unbounded ones.
// And for every record p, under the unbounded range and each range of the
// cut, JoinProbe(p, range) equals Search(query(p), range.Below(p)) in ids
// and every counter — for the edit adapter that compares the stored-state
// path with the derived one.
template <Searcher S>
void ExpectIdRangeContract(S& adapter, const std::vector<int>& probes) {
  const int n = adapter.size();
  const std::vector<IdRange> cut = shard::ShardRanges(n, 4);
  for (int probe : probes) {
    SCOPED_TRACE("probe " + std::to_string(probe));
    const typename S::Query query = adapter.query(probe);
    QueryStats unbounded_stats;
    const std::vector<int> unbounded = adapter.Search(query, &unbounded_stats);
    const auto inside = [&](IdRange range) {
      std::vector<int> want;
      for (int id : unbounded) {
        if (range.begin <= id && id < range.end) want.push_back(id);
      }
      return want;
    };
    int64_t previous = 0;
    for (int limit = 0; limit <= n; ++limit) {
      QueryStats stats;
      const std::vector<int> ids = adapter.Search(query, &stats, {0, limit});
      EXPECT_EQ(ids, inside({0, limit})) << "limit " << limit;
      const int64_t step = stats.candidates - previous;
      EXPECT_TRUE(limit == 0 ? stats.candidates == 0 : step == 0 || step == 1)
          << "limit " << limit << ": " << stats.candidates << " candidates";
      previous = stats.candidates;
    }
    EXPECT_EQ(previous, unbounded_stats.candidates);
    // Every 9th lower end against every 7th upper end, the last one
    // clamped to n.
    for (int lo = 0; lo <= n; lo += 9) {
      for (int hi = lo; hi <= n + 6; hi += 7) {
        const IdRange range{lo, std::min(hi, n)};
        EXPECT_EQ(adapter.Search(query, nullptr, range), inside(range))
            << "range [" << range.begin << ", " << range.end << ")";
      }
    }
    std::vector<int> concatenated;
    QueryStats summed;
    for (const IdRange& range : cut) {
      QueryStats stats;
      const std::vector<int> ids = adapter.Search(query, &stats, range);
      concatenated.insert(concatenated.end(), ids.begin(), ids.end());
      summed += stats;
    }
    EXPECT_EQ(concatenated, unbounded);
    api::ExpectSameCounters(summed, unbounded_stats);
  }
  S search_copy = adapter;
  for (int p = 0; p < n; ++p) {
    SCOPED_TRACE("join probe " + std::to_string(p));
    std::vector<IdRange> ranges = cut;
    ranges.push_back(IdRange{});
    for (const IdRange& range : ranges) {
      QueryStats probe_stats;
      QueryStats search_stats;
      const std::vector<int> joined =
          adapter.JoinProbe(p, &probe_stats, range);
      EXPECT_EQ(joined, search_copy.Search(search_copy.query(p), &search_stats,
                                           range.Below(p)))
          << "range [" << range.begin << ", " << range.end << ")";
      api::ExpectSameCounters(probe_stats, search_stats);
    }
  }
}

// Probes for the range sweeps: the first, middle and last record, and the
// record with the most matches.
template <Searcher S>
std::vector<int> SweepProbes(S& adapter) {
  const int n = adapter.size();
  int busiest = 0;
  size_t most = 0;
  for (int i = 0; i < n; ++i) {
    const size_t matches = adapter.Search(adapter.query(i)).size();
    if (matches > most) {
      most = matches;
      busiest = i;
    }
  }
  EXPECT_GT(most, 2u) << "the data must hold matches for the sweep";
  return {0, n / 2, n - 1, busiest};
}

TEST(EngineTest, IdRangeKeepsTheUnboundedAnswerInsideIt) {
  {
    SCOPED_TRACE("hamming");
    HammingAdapter adapter(hamming::HammingSearcher(MakeVectors(200, 93), 4),
                           8, 3);
    ExpectIdRangeContract(adapter, SweepProbes(adapter));
  }
  {
    SCOPED_TRACE("sets");
    datagen::TokenSetConfig config;
    config.num_records = 200;
    config.avg_tokens = 12;
    config.universe_size = 600;
    config.duplicate_fraction = 0.4;
    config.seed = 94;
    setsim::SetCollection collection(datagen::GenerateTokenSets(config));
    SetAdapter adapter(setsim::PkwiseSearcher(&collection, 0.6, 5),
                       &collection, 2);
    ExpectIdRangeContract(adapter, SweepProbes(adapter));
  }
  {
    // Strings too short for the gram scheme (length < 4 at tau 2, kappa 2)
    // sit among the others, so the short ids and the length lists are cut
    // too, and a short probe takes the length-list path.
    datagen::StringConfig config;
    config.num_records = 196;
    config.avg_length = 14;
    config.duplicate_fraction = 0.4;
    config.max_perturb_edits = 2;
    config.seed = 95;
    std::vector<std::string> data = datagen::GenerateStrings(config);
    data.insert(data.begin() + 40, "ab");
    data.insert(data.begin() + 90, "abc");
    data.insert(data.begin() + 91, "bc");
    data.insert(data.begin() + 150, "b");
    for (const auto filter :
         {editdist::EditFilter::kRing, editdist::EditFilter::kPivotal}) {
      SCOPED_TRACE(filter == editdist::EditFilter::kRing ? "strings ring"
                                                         : "strings pivotal");
      const int chain_length = filter == editdist::EditFilter::kRing ? 3 : 1;
      EditAdapter adapter(editdist::EditDistanceSearcher(&data, 2, 2), &data,
                          filter, chain_length);
      std::vector<int> probes = SweepProbes(adapter);
      probes.push_back(90);  // "abc": a short probe
      ExpectIdRangeContract(adapter, probes);
    }
  }
  {
    SCOPED_TRACE("strings fast path");
    // Two cases at tau 2: j = 0 probes its partition index with a row
    // limit, j = 1 (Hamming tau 0) cuts its exact-match table.
    datagen::StringConfig config;
    config.num_records = 200;
    config.fixed_length = 12;
    config.duplicate_fraction = 0.4;
    config.max_perturb_edits = 2;
    config.seed = 96;
    const auto data = datagen::GenerateStrings(config);
    EditFastAdapter adapter(editdist::CaseDecSearcher(&data, 2), &data, 2);
    ASSERT_EQ(adapter.searcher().cases().size(), 2u);
    ExpectIdRangeContract(adapter, SweepProbes(adapter));
  }
  {
    SCOPED_TRACE("graphs");
    datagen::GraphConfig config;
    config.num_graphs = 160;
    config.avg_vertices = 8;
    config.avg_edges = 9;
    config.vertex_labels = 8;
    config.duplicate_fraction = 0.4;
    config.max_perturb_ops = 2;
    config.seed = 97;
    const auto data = datagen::GenerateGraphs(config);
    GraphAdapter adapter(graphed::GraphSearcher(&data, 2), &data,
                         graphed::GraphFilter::kRing, 2);
    ExpectIdRangeContract(adapter, SweepProbes(adapter));
  }
}

TEST(EngineTest, EmptyCollectionsJoinToNothing) {
  Executor executor;
  const ExecutionContext sequential(executor, {});
  {
    HammingAdapter adapter(
        hamming::HammingSearcher(std::vector<BitVector>{}, 1), 2, 2);
    JoinStats stats;
    EXPECT_TRUE(SelfJoin(adapter, sequential, &stats).empty());
    EXPECT_EQ(stats.pairs, 0);
    EXPECT_EQ(stats.candidates, 0);
  }
  {
    setsim::SetCollection collection{std::vector<std::vector<int>>{}};
    SetAdapter adapter(setsim::PkwiseSearcher(&collection, 0.8, 5),
                       &collection, 2);
    EXPECT_TRUE(SelfJoin(adapter, sequential).empty());
  }
  {
    const std::vector<std::string> data;
    EditAdapter adapter(editdist::EditDistanceSearcher(&data, 2, 2), &data,
                        editdist::EditFilter::kRing, 3);
    EXPECT_TRUE(SelfJoin(adapter, sequential).empty());
  }
  {
    const std::vector<graphed::Graph> data;
    GraphAdapter adapter(graphed::GraphSearcher(&data, 1), &data,
                         graphed::GraphFilter::kRing, 1);
    EXPECT_TRUE(SelfJoin(adapter, sequential).empty());
  }
}

TEST(EngineTest, SingleRecordJoinsToNothing) {
  ExecutionOptions options;
  options.num_threads = 4;
  Executor executor;
  const ExecutionContext context(executor, options);
  {
    HammingAdapter adapter(
        hamming::HammingSearcher(MakeVectors(1, 97), 2), 4, 2);
    JoinStats stats;
    EXPECT_TRUE(SelfJoin(adapter, context, &stats).empty());
    EXPECT_EQ(stats.pairs, 0);
    EXPECT_EQ(stats.candidates, 0) << "the self-match must not be counted";
  }
  {
    setsim::SetCollection collection{
        std::vector<std::vector<int>>{{1, 2, 3}}};
    SetAdapter adapter(setsim::PkwiseSearcher(&collection, 0.8, 5),
                       &collection, 2);
    JoinStats stats;
    EXPECT_TRUE(SelfJoin(adapter, context, &stats).empty());
    EXPECT_EQ(stats.candidates, 0);
  }
}

// Pins operator+= to the full field set of each stats struct. The
// static_asserts fail compilation the moment a field is added, forcing
// whoever adds it to extend operator+= and the expectations here together
// (forgetting operator+= would silently drop the new counter from every
// batch/join merge).
TEST(EngineTest, QueryStatsMergeCoversEveryField) {
  static_assert(sizeof(QueryStats) == 8 * sizeof(int64_t) + 3 * sizeof(double),
                "QueryStats gained a field: update operator+= and this test");
  QueryStats a;
  a.candidates = 1;
  a.candidates_stage2 = 2;
  a.results = 3;
  a.index_hits = 4;
  a.chain_checks = 5;
  a.subiso_tests = 6;
  a.fast_path_candidates = 7;
  a.fast_path_hits = 8;
  a.filter_millis = 0.5;
  a.verify_millis = 0.25;
  a.total_millis = 0.125;
  QueryStats sum = a;
  sum += a;
  EXPECT_EQ(sum.candidates, 2);
  EXPECT_EQ(sum.candidates_stage2, 4);
  EXPECT_EQ(sum.results, 6);
  EXPECT_EQ(sum.index_hits, 8);
  EXPECT_EQ(sum.chain_checks, 10);
  EXPECT_EQ(sum.subiso_tests, 12);
  EXPECT_EQ(sum.fast_path_candidates, 14);
  EXPECT_EQ(sum.fast_path_hits, 16);
  EXPECT_EQ(sum.filter_millis, 1.0);
  EXPECT_EQ(sum.verify_millis, 0.5);
  EXPECT_EQ(sum.total_millis, 0.25);
  // Doubling every field of a distinct-valued struct reaches each field
  // exactly once, so sum != a iff no field was skipped or double-counted.
  QueryStats zero;
  zero += a;
  EXPECT_EQ(zero, a);
}

TEST(EngineTest, JoinStatsMergeCoversEveryField) {
  static_assert(sizeof(JoinStats) == 2 * sizeof(int64_t) + sizeof(double),
                "JoinStats gained a field: update operator+= and this test");
  JoinStats a;
  a.candidates = 11;
  a.pairs = 13;
  a.total_millis = 0.75;
  JoinStats sum = a;
  sum += a;
  EXPECT_EQ(sum.candidates, 22);
  EXPECT_EQ(sum.pairs, 26);
  EXPECT_EQ(sum.total_millis, 1.5);
  JoinStats zero;
  zero += a;
  EXPECT_EQ(zero, a);
}

TEST(EngineTest, SearchBatchPreservesInputOrder) {
  auto objects = MakeVectors(300, 101);
  std::vector<BitVector> queries(objects.begin(), objects.begin() + 50);
  HammingAdapter adapter(hamming::HammingSearcher(std::move(objects), 4), 10,
                         3);
  Executor executor;
  const ExecutionContext sequential(executor, {});
  QueryStats seq_stats;
  const auto seq = SearchBatch(adapter, queries, sequential, &seq_stats);
  ASSERT_EQ(seq.size(), queries.size());

  ExecutionOptions options;
  options.num_threads = 4;
  options.chunk = 3;
  const ExecutionContext parallel(executor, options);
  QueryStats par_stats;
  const auto par = SearchBatch(adapter, queries, parallel, &par_stats);
  EXPECT_EQ(par, seq);
  EXPECT_EQ(par_stats.candidates, seq_stats.candidates);
  EXPECT_EQ(par_stats.results, seq_stats.results);
  EXPECT_EQ(par_stats.index_hits, seq_stats.index_hits);

  // Each slot must be that query's own answer, not just some permutation.
  HammingAdapter single = adapter;
  for (size_t i = 0; i < queries.size(); i += 7) {
    EXPECT_EQ(par[i], single.Search(queries[i], nullptr)) << "query " << i;
  }
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  std::atomic<bool> bad_thread{false};
  pool.ParallelFor(kN, 7, [&](int thread, int64_t begin, int64_t end) {
    if (thread < 0 || thread >= 4) bad_thread = true;
    for (int64_t i = begin; i < end; ++i) counts[i]++;
  });
  EXPECT_FALSE(bad_thread);
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInlineOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  int calls = 0;
  pool.ParallelFor(10, 4, [&](int thread, int64_t begin, int64_t end) {
    EXPECT_EQ(thread, 0);
    calls += static_cast<int>(end - begin);
  });
  EXPECT_EQ(calls, 10);
}

TEST(ThreadPoolTest, EmptyRangeRunsNothing) {
  ThreadPool pool(3);
  pool.ParallelFor(0, 8, [&](int, int64_t, int64_t) { FAIL(); });
}

TEST(ThreadPoolTest, ReusableAcrossLoops) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(100, 9, [&](int, int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) sum += i;
    });
    EXPECT_EQ(sum.load(), 99 * 100 / 2);
  }
}

TEST(ThreadPoolTest, EnsureThreadsGrowsButNeverShrinks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  pool.EnsureThreads(3);
  EXPECT_EQ(pool.num_threads(), 3);
  pool.EnsureThreads(2);  // never shrinks
  EXPECT_EQ(pool.num_threads(), 3);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(100, 5, [&](int, int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ThreadPoolTest, MaxThreadsCapsTheLoopWidth) {
  ThreadPool pool(6);
  constexpr int kWidth = 2;
  std::atomic<bool> bad_thread{false};
  std::vector<std::atomic<int>> counts(500);
  pool.ParallelFor(500, 3, kWidth, [&](int thread, int64_t begin,
                                       int64_t end) {
    if (thread < 0 || thread >= kWidth) bad_thread = true;
    for (int64_t i = begin; i < end; ++i) counts[i]++;
  });
  EXPECT_FALSE(bad_thread) << "thread index escaped the width cap";
  for (int i = 0; i < 500; ++i) ASSERT_EQ(counts[i].load(), 1);
}

TEST(ThreadPoolTest, ConcurrentCallersSerializeCorrectly) {
  // One shared pool, several caller threads each running many loops: every
  // loop must still cover exactly its own range (the service pattern —
  // sessions share one executor).
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr int kLoops = 25;
  std::vector<std::thread> callers;
  std::vector<std::atomic<int64_t>> sums(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &sums, c] {
      for (int loop = 0; loop < kLoops; ++loop) {
        std::atomic<int64_t> sum{0};
        pool.ParallelFor(200, 7, [&](int, int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) sum += i;
        });
        if (sum.load() != 199 * 200 / 2) sums[c] = -1;
      }
      if (sums[c].load() != -1) sums[c] = 199 * 200 / 2;
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(sums[c].load(), 199 * 200 / 2) << "caller " << c;
  }
}

TEST(ExecutorTest, SubmitRunsEveryJobAndFuturesResolve) {
  std::vector<std::future<int>> futures;
  std::atomic<int> ran{0};
  {
    Executor executor(2);
    for (int i = 0; i < 16; ++i) {
      auto promise = std::make_shared<std::promise<int>>();
      futures.push_back(promise->get_future());
      executor.Submit([promise, &ran, i] {
        ++ran;
        promise->set_value(i * i);
      });
    }
    // Harvest in reverse: completion order must not matter.
    for (int i = 15; i >= 0; --i) {
      EXPECT_EQ(futures[i].get(), i * i);
    }
  }  // the destructor drains anything still queued
  EXPECT_EQ(ran.load(), 16);
}

TEST(ExecutorTest, ContextGrowsThePoolOnDemand) {
  Executor executor(1);
  EXPECT_EQ(executor.num_threads(), 1);
  ExecutionOptions options;
  options.num_threads = 3;
  ExecutionContext context(executor, options);
  EXPECT_EQ(context.num_threads(), 3);
  EXPECT_EQ(executor.num_threads(), 3);
  // A narrower follow-up call keeps the grown pool but a narrow loop.
  options.num_threads = 2;
  ExecutionContext narrow(executor, options);
  EXPECT_EQ(narrow.num_threads(), 2);
  EXPECT_EQ(executor.num_threads(), 3);
}

TEST(ExecutorTest, DriversReuseThePersistentExecutorAcrossCalls) {
  const auto objects = MakeVectors(200, 57);
  HammingAdapter adapter(hamming::HammingSearcher(objects), 8, 3);
  std::vector<BitVector> queries(objects.begin(), objects.begin() + 30);

  Executor reference;
  const ExecutionContext sequential(reference, {});
  const auto expected = SearchBatch(adapter, queries, sequential);
  Executor executor(2);
  ExecutionOptions options;
  options.num_threads = 2;
  options.chunk = 4;
  for (int call = 0; call < 5; ++call) {
    ExecutionContext context(executor, options);
    EXPECT_EQ(SearchBatch(adapter, queries, context), expected);
  }
  EXPECT_EQ(executor.num_threads(), 2) << "no pool rebuild between calls";
  ExecutionContext context(executor, options);
  EXPECT_EQ(SelfJoin(adapter, context), SelfJoin(adapter, sequential));
}

}  // namespace
}  // namespace pigeonring::engine
