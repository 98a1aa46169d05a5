// Micro-benchmarks (google-benchmark) for the kernels every search touches:
// chain checks, popcount Hamming distance, overlap merge, banded and
// bit-parallel edit distance, subgraph isomorphism, and exact GED, plus
// the kernel panel
// (BM_Kernel*): the dispatched SIMD kernels of src/kernels/ against the
// pre-PR scalar loop they replaced (protocol in docs/BENCHMARKS.md; the
// committed BENCH_kernels.json baseline comes from the self-timed
// bench_kernels binary, which runs without Google Benchmark).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/bitvector.h"
#include "common/random.h"
#include "core/principle.h"
#include "datagen/graphs.h"
#include "editdist/verify.h"
#include "graphed/ged.h"
#include "graphed/partition.h"
#include "graphed/subiso.h"
#include "kernels/flat_bit_table.h"
#include "kernels/kernels.h"
#include "setsim/record.h"

namespace {

using namespace pigeonring;

void BM_PrefixViableChainExists(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int l = static_cast<int>(state.range(1));
  Rng rng(1);
  std::vector<std::vector<double>> rings(256, std::vector<double>(m));
  for (auto& ring : rings) {
    for (double& b : ring) b = static_cast<double>(rng.NextBounded(8));
  }
  const double n = 3.0 * m;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::PrefixViableChainExists(rings[i++ & 255], n, l));
  }
}
BENCHMARK(BM_PrefixViableChainExists)
    ->Args({16, 1})
    ->Args({16, 4})
    ->Args({16, 16})
    ->Args({64, 8});

void BM_HammingDistance(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  Rng rng(2);
  BitVector a(d), b(d);
  for (int i = 0; i < d; ++i) {
    a.Set(i, rng.NextBernoulli(0.5));
    b.Set(i, rng.NextBernoulli(0.5));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.HammingDistance(b));
  }
}
BENCHMARK(BM_HammingDistance)->Arg(256)->Arg(512);

void BM_PartDistance(benchmark::State& state) {
  Rng rng(3);
  BitVector a(256), b(256);
  for (int i = 0; i < 256; ++i) {
    a.Set(i, rng.NextBernoulli(0.5));
    b.Set(i, rng.NextBernoulli(0.5));
  }
  int part = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.PartDistance(b, part * 16, part * 16 + 16));
    part = (part + 1) & 15;
  }
}
BENCHMARK(BM_PartDistance);

// --- Kernel panel: the dispatched kernels vs the pre-PR scalar loop. ---

// Replicates the pre-PR BitVector::HammingDistance loop exactly (word at a
// time over the record-owned vector, no unrolling, no early exit) as the
// fixed baseline the kernel series are compared against.
int PrePrScalarDistance(const std::vector<uint64_t>& a,
                        const std::vector<uint64_t>& b) {
  int total = 0;
  for (size_t i = 0; i < a.size(); ++i) total += Popcount64(a[i] ^ b[i]);
  return total;
}

std::pair<BitVector, BitVector> RandomPair(int d, uint64_t seed) {
  Rng rng(seed);
  BitVector a(d), b(d);
  for (int i = 0; i < d; ++i) {
    a.Set(i, rng.NextBernoulli(0.5));
    b.Set(i, rng.NextBernoulli(0.5));
  }
  return {a, b};
}

void BM_KernelScalarLoopRef(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  auto [a, b] = RandomPair(d, 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PrePrScalarDistance(a.words(), b.words()));
  }
}
BENCHMARK(BM_KernelScalarLoopRef)->Arg(64)->Arg(256)->Arg(512);

void BM_KernelHammingDistance(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  auto [a, b] = RandomPair(d, 22);
  const int nw = a.num_words();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::HammingDistanceWords(
        a.words().data(), b.words().data(), nw));
  }
}
BENCHMARK(BM_KernelHammingDistance)->Arg(64)->Arg(256)->Arg(512);

void BM_KernelHammingLeq(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const int tau = static_cast<int>(state.range(1));
  auto [a, b] = RandomPair(d, 23);
  const int nw = a.num_words();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::HammingDistanceLeqWords(
        a.words().data(), b.words().data(), nw, tau));
  }
}
BENCHMARK(BM_KernelHammingLeq)
    ->Args({256, 25})
    ->Args({256, 128})
    ->Args({512, 51});

void BM_KernelBatchVerify(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  Rng rng(24);
  std::vector<BitVector> objects;
  for (int i = 0; i < 1024; ++i) {
    BitVector v(d);
    for (int j = 0; j < d; ++j) v.Set(j, rng.NextBernoulli(0.5));
    objects.push_back(std::move(v));
  }
  const kernels::FlatBitTable table =
      kernels::FlatBitTable::FromVectors(objects);
  const BitVector query = objects.front();
  std::vector<int> ids(objects.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  std::vector<uint8_t> verdicts(objects.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::VerifyHammingLeqBatch(
        table, query.words().data(), d / 10, ids.data(),
        static_cast<int>(ids.size()), verdicts.data()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ids.size()));
}
BENCHMARK(BM_KernelBatchVerify)->Arg(64)->Arg(256);

// One posting list of state.range(0) entries through the dispatched
// §6.3 select (side, position and length tests; the range covers it).
void BM_KernelSelectPostings(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  Rng rng(25);
  std::vector<int> ids(size), positions(size), lengths(size), ranks(size);
  for (int k = 0; k < size; ++k) {
    ids[k] = 3 * k;
    positions[k] = static_cast<int>(rng.NextBounded(16));
    lengths[k] = 8 + static_cast<int>(rng.NextBounded(16));
    ranks[k] = static_cast<int>(rng.NextBounded(64));
  }
  const kernels::PostingList list{ids.data(), positions.data(),
                                  lengths.data(), ranks.data(), size};
  const kernels::PostingTest test{1 << 30, true, 32, 8, 16, 2};
  std::vector<int> selected(size + kernels::kSelectSlack);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::SelectPostings(list, test, selected.data()));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * size);
}
BENCHMARK(BM_KernelSelectPostings)->Arg(16)->Arg(256);

void BM_OverlapVerify(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  Rng rng(4);
  setsim::RankedSet x, y;
  for (int i = 0; i < 4 * size; ++i) {
    if (rng.NextBernoulli(0.25)) x.push_back(i);
    if (rng.NextBernoulli(0.25)) y.push_back(i);
  }
  const int required = size / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(setsim::OverlapAtLeast(x, y, required));
  }
}
BENCHMARK(BM_OverlapVerify)->Arg(14)->Arg(142);

void BM_BandedEditDistance(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  const int tau = static_cast<int>(state.range(1));
  Rng rng(5);
  std::string a, b;
  for (int i = 0; i < len; ++i) {
    a.push_back(static_cast<char>('a' + rng.NextBounded(26)));
  }
  b = a;
  for (int e = 0; e < tau; ++e) {
    b[rng.NextBounded(b.size())] =
        static_cast<char>('a' + rng.NextBounded(26));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(editdist::BandedEditDistance(a, b, tau));
  }
}
BENCHMARK(BM_BandedEditDistance)->Args({16, 2})->Args({101, 8});

// The bit-parallel verifier on BM_BandedEditDistance's pairs; its pattern
// masks are built once, outside the loop, as a probe builds them.
void BM_BitParallelEditDistance(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  const int tau = static_cast<int>(state.range(1));
  Rng rng(5);
  std::string a, b;
  for (int i = 0; i < len; ++i) {
    a.push_back(static_cast<char>('a' + rng.NextBounded(26)));
  }
  b = a;
  for (int e = 0; e < tau; ++e) {
    b[rng.NextBounded(b.size())] =
        static_cast<char>('a' + rng.NextBounded(26));
  }
  const editdist::EditVerifier verifier(b, tau);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.Distance(a));
  }
}
BENCHMARK(BM_BitParallelEditDistance)->Args({16, 2})->Args({64, 8});

void BM_ContentFilterMask(benchmark::State& state) {
  std::string s = "thequickbrownfoxjumps";
  for (auto _ : state) {
    benchmark::DoNotOptimize(editdist::AlphabetMask(s));
  }
}
BENCHMARK(BM_ContentFilterMask);

void BM_PartSubIso(benchmark::State& state) {
  datagen::GraphConfig config;
  config.num_graphs = 64;
  config.avg_vertices = 12;
  config.avg_edges = 13;
  config.vertex_labels = 20;
  config.seed = 6;
  const auto graphs = datagen::GenerateGraphs(config);
  std::vector<std::vector<graphed::Part>> parts;
  for (const auto& g : graphs) {
    parts.push_back(graphed::PartitionGraph(g, 4, 1));
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& p = parts[i & 63];
    const auto& q = graphs[(i + 1) & 63];
    benchmark::DoNotOptimize(graphed::PartSubgraphIsomorphic(p[i & 3], q));
    ++i;
  }
}
BENCHMARK(BM_PartSubIso);

void BM_GraphEditDistance(benchmark::State& state) {
  const int tau = static_cast<int>(state.range(0));
  datagen::GraphConfig config;
  config.num_graphs = 32;
  config.avg_vertices = 10;
  config.avg_edges = 11;
  config.vertex_labels = 20;
  config.duplicate_fraction = 0.5;
  config.max_perturb_ops = tau;
  config.seed = 7;
  const auto graphs = datagen::GenerateGraphs(config);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graphed::GraphEditDistanceWithin(
        graphs[i & 31], graphs[(i + 1) & 31], tau));
    ++i;
  }
}
BENCHMARK(BM_GraphEditDistance)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
