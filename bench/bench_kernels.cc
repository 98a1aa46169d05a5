// Kernel panel: the verification hot path before and after the kernel
// layer, self-timed (no Google Benchmark dependency so it runs everywhere,
// including the CI bench-smoke job).
//
// Five panels:
//   1. verify:      per-pair threshold verification H(x, q) <= tau at
//                   several dimension counts — the pre-PR scalar loop over
//                   per-record BitVector words (full distance, then
//                   compare) vs kernels::VerifyHammingLeqBatch over a
//                   FlatBitTable (dispatched popcount + early exit).
//   2. isa sweep:   the same batched kernel pinned to each supported
//                   dispatch path at d = 512 — the smallest width whose
//                   rows leave the inlined small-row path (<= 4 words) and
//                   reach the dispatched kernels — to attribute the win
//                   between layout/early-exit and SIMD width.
//   3. end-to-end:  HammingSearcher::Search wall time on a clustered
//                   dataset (the full filter + rewired verify stack).
//   4. edit select: kernels::SelectPostings pinned to each supported path
//                   over the posting lists a strings self-join scans
//                   (5k strings, tau 2, kappa 2: every record's half-probe
//                   lists, cut at its id), in ns per in-range posting.
//   5. edit verify: ed(x, q) <= tau per candidate-like pair (tau 2, one
//                   near copy per eight length-window strangers) —
//                   BandedEditDistance vs the bit-parallel EditVerifier,
//                   its pattern masks built once per query.
//
// `--json FILE` dumps the panels machine-readably; BENCH_kernels.json at
// the repo root is a committed baseline (protocol in docs/BENCHMARKS.md).
// Every panel with two paths self-checks that they agree — verdicts,
// survivors and counts — before timing anything, and exits 1 if not.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/bitvector.h"
#include "common/random.h"
#include "common/timer.h"
#include "datagen/binary_vectors.h"
#include "datagen/strings.h"
#include "editdist/pivotal.h"
#include "editdist/verify.h"
#include "hamming/search.h"
#include "kernels/flat_bit_table.h"
#include "kernels/kernels.h"

namespace {

using namespace pigeonring;

// The pre-PR verification loop, replicated exactly: word-at-a-time
// popcount over each record's own heap-allocated word vector, full
// distance computed before the threshold compare (no early exit, no flat
// layout). This is the baseline the kernel panel is measured against.
int PrePrVerifyCount(const std::vector<BitVector>& objects,
                     const BitVector& query, int tau) {
  int hits = 0;
  for (const BitVector& x : objects) {
    const std::vector<uint64_t>& a = x.words();
    const std::vector<uint64_t>& b = query.words();
    int total = 0;
    for (size_t i = 0; i < a.size(); ++i) total += Popcount64(a[i] ^ b[i]);
    if (total <= tau) ++hits;
  }
  return hits;
}

std::vector<BitVector> MakeVectors(int n, int dimensions, uint64_t seed) {
  datagen::BinaryVectorConfig config;
  config.dimensions = dimensions;
  config.num_objects = n;
  config.num_clusters = std::max(1, n / 40);
  config.cluster_fraction = 0.5;
  config.flip_rate = 0.05;
  config.bit_bias = 0.3;
  config.seed = seed;
  return datagen::GenerateBinaryVectors(config);
}

struct VerifyPanelRow {
  int dimensions = 0;
  int tau = 0;
  int rows = 0;
  int queries = 0;
  double baseline_ns_per_pair = 0;
  double kernel_ns_per_pair = 0;
  double speedup = 0;
};

VerifyPanelRow RunVerifyPanel(int dimensions, int repeats) {
  VerifyPanelRow row;
  row.dimensions = dimensions;
  row.tau = dimensions / 10;  // selective threshold: most pairs early-exit
  row.rows = bench::Scaled(4000);
  row.queries = 32;
  const auto objects = MakeVectors(row.rows, dimensions, 7000 + dimensions);
  const auto queries = MakeVectors(row.queries, dimensions, 7100 + dimensions);
  const kernels::FlatBitTable table =
      kernels::FlatBitTable::FromVectors(objects);
  std::vector<int> ids(objects.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  std::vector<uint8_t> verdicts(objects.size());

  // Parity self-check before timing.
  for (const BitVector& q : queries) {
    const int expected = PrePrVerifyCount(objects, q, row.tau);
    const int got = kernels::VerifyHammingLeqBatch(
        table, q.words().data(), row.tau, ids.data(),
        static_cast<int>(ids.size()), verdicts.data());
    if (expected != got) {
      std::fprintf(stderr, "FATAL: kernel/baseline verdict mismatch at d=%d\n",
                   dimensions);
      std::exit(1);
    }
  }

  const double pairs =
      static_cast<double>(row.rows) * row.queries * repeats;
  StopWatch watch;
  long long sink = 0;
  for (int r = 0; r < repeats; ++r) {
    for (const BitVector& q : queries) {
      sink += PrePrVerifyCount(objects, q, row.tau);
    }
  }
  row.baseline_ns_per_pair = watch.ElapsedMillis() * 1e6 / pairs;

  watch.Restart();
  for (int r = 0; r < repeats; ++r) {
    for (const BitVector& q : queries) {
      sink += kernels::VerifyHammingLeqBatch(
          table, q.words().data(), row.tau, ids.data(),
          static_cast<int>(ids.size()), verdicts.data());
    }
  }
  row.kernel_ns_per_pair = watch.ElapsedMillis() * 1e6 / pairs;
  row.speedup = row.baseline_ns_per_pair /
                std::max(1e-9, row.kernel_ns_per_pair);
  if (sink == 42) std::printf(" ");  // defeat dead-code elimination
  return row;
}

struct IsaSweepRow {
  std::string isa;
  double kernel_ns_per_pair = 0;
};

std::vector<IsaSweepRow> RunIsaSweep(int dimensions, int repeats) {
  std::vector<IsaSweepRow> rows;
  const int tau = dimensions / 10;
  const int n = bench::Scaled(4000);
  const auto objects = MakeVectors(n, dimensions, 7200);
  const auto queries = MakeVectors(32, dimensions, 7300);
  const kernels::FlatBitTable table =
      kernels::FlatBitTable::FromVectors(objects);
  std::vector<int> ids(objects.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  std::vector<uint8_t> verdicts(objects.size());
  const kernels::Isa saved = kernels::ActiveIsa();
  long long sink = 0;
  for (kernels::Isa isa : {kernels::Isa::kScalar, kernels::Isa::kAvx2,
                           kernels::Isa::kAvx512}) {
    if (!kernels::SetActiveIsa(isa)) continue;
    StopWatch watch;
    for (int r = 0; r < repeats; ++r) {
      for (const BitVector& q : queries) {
        sink += kernels::VerifyHammingLeqBatch(
            table, q.words().data(), tau, ids.data(),
            static_cast<int>(ids.size()), verdicts.data());
      }
    }
    const double pairs = static_cast<double>(n) * queries.size() * repeats;
    rows.push_back({kernels::IsaName(isa),
                    watch.ElapsedMillis() * 1e6 / pairs});
  }
  kernels::SetActiveIsa(saved);
  if (sink == 42) std::printf(" ");
  return rows;
}

struct SearchPanelRow {
  int num_objects = 0;
  int num_queries = 0;
  double millis_per_query = 0;
  int64_t results = 0;
};

SearchPanelRow RunSearchPanel() {
  SearchPanelRow row;
  row.num_objects = bench::Scaled(20000);
  row.num_queries = bench::Scaled(200);
  auto objects = MakeVectors(row.num_objects, 128, 7400);
  const auto queries = MakeVectors(row.num_queries, 128, 7500);
  hamming::HammingSearcher searcher(std::move(objects));
  StopWatch watch;
  for (const BitVector& q : queries) {
    row.results +=
        static_cast<int64_t>(searcher.Search(q, 12, 4).size());
  }
  row.millis_per_query = watch.ElapsedMillis() / row.num_queries;
  return row;
}

// The strings self-join's collection: perfbench's strings-join shape.
std::vector<std::string> JoinStrings() {
  datagen::StringConfig config;
  config.num_records = bench::Scaled(5000);
  config.avg_length = 16;
  config.duplicate_fraction = 0.35;
  config.max_perturb_edits = 2;
  config.seed = 7600;
  return datagen::GenerateStrings(config);
}

struct SelectCall {
  kernels::PostingList list;
  kernels::PostingTest test;
};

// Every select a tau-2 self-join runs: probe p's prefix grams over the
// pivotal lists (the record's prefix ends first) and its pivotal grams
// over the prefix lists, each list cut at id p.
std::vector<SelectCall> JoinSelects(
    const editdist::EditDistanceSearcher& searcher,
    const std::vector<std::string>& data) {
  using editdist::EditDistanceSearcher;
  const EditDistanceSearcher::Index& index = searcher.index();
  auto view = [](const EditDistanceSearcher::PostingLists& lists, int rank) {
    const size_t first = lists.offsets[rank];
    return kernels::PostingList{
        lists.ids.data() + first, lists.positions.data() + first,
        lists.lengths.data() + first, lists.prefix_last_ranks.data() + first,
        static_cast<int>(lists.offsets[rank + 1] - first)};
  };
  std::vector<SelectCall> calls;
  for (int p = 0; p < static_cast<int>(data.size()); ++p) {
    const editdist::GramProfile& profile = index.profiles[p];
    if (profile.is_short) continue;
    const int length = static_cast<int>(data[p].size());
    for (bool x_side : {true, false}) {
      for (const editdist::Gram& g :
           x_side ? profile.prefix : profile.pivotal) {
        calls.push_back({view(x_side ? index.pivotal : index.prefix, g.rank),
                         {p, x_side, profile.prefix_last_rank, g.position,
                          length, searcher.tau()}});
      }
    }
  }
  return calls;
}

// Runs every call, appending each call's counts and survivors to `out`
// when given; returns the in-range postings scanned.
int64_t RunSelects(const std::vector<SelectCall>& calls,
                   std::vector<int>* selected, std::vector<int>* out) {
  int64_t postings = 0;
  for (const SelectCall& call : calls) {
    const kernels::SelectCounts counts =
        kernels::SelectPostings(call.list, call.test, selected->data());
    postings += counts.in_range;
    if (out != nullptr) {
      out->push_back(counts.in_range);
      out->push_back(counts.selected);
      out->insert(out->end(), selected->begin(),
                  selected->begin() + counts.selected);
    }
  }
  return postings;
}

struct SelectRow {
  std::string isa;
  int64_t calls = 0;
  int64_t postings = 0;  // per pass
  double ns_per_posting = 0;
};

std::vector<SelectRow> RunSelectPanel(int repeats) {
  const std::vector<std::string> data = JoinStrings();
  const editdist::EditDistanceSearcher searcher(&data, 2, 2);
  const std::vector<SelectCall> calls = JoinSelects(searcher, data);
  size_t longest = 0;
  for (const SelectCall& call : calls) {
    longest = std::max(longest, static_cast<size_t>(call.list.size));
  }
  std::vector<int> selected(longest + kernels::kSelectSlack);

  const kernels::Isa saved = kernels::ActiveIsa();
  kernels::SetActiveIsa(kernels::Isa::kScalar);
  std::vector<int> reference;
  RunSelects(calls, &selected, &reference);
  std::vector<SelectRow> rows;
  for (kernels::Isa isa : {kernels::Isa::kScalar, kernels::Isa::kAvx2,
                           kernels::Isa::kAvx512}) {
    if (!kernels::SetActiveIsa(isa)) continue;
    std::vector<int> got;
    SelectRow row;
    row.isa = kernels::IsaName(isa);
    row.calls = static_cast<int64_t>(calls.size());
    row.postings = RunSelects(calls, &selected, &got);
    if (got != reference) {
      std::fprintf(stderr,
                   "FATAL: %s posting select diverges from the scalar path\n",
                   row.isa.c_str());
      std::exit(1);
    }
    StopWatch watch;
    int64_t sink = 0;
    for (int r = 0; r < repeats; ++r) {
      sink += RunSelects(calls, &selected, nullptr);
    }
    row.ns_per_posting = watch.ElapsedMillis() * 1e6 /
                         std::max<double>(1.0, static_cast<double>(sink));
    rows.push_back(row);
  }
  kernels::SetActiveIsa(saved);
  return rows;
}

struct EditVerifyRow {
  int tau = 2;
  int queries = 0;
  int64_t pairs = 0;
  int64_t matches = 0;
  double banded_ns_per_pair = 0;
  double bit_parallel_ns_per_pair = 0;
  double speedup = 0;
};

EditVerifyRow RunEditVerifyPanel(int repeats) {
  EditVerifyRow row;
  const std::vector<std::string> data = JoinStrings();
  // Per query: one near copy (up to tau + 1 edits, so some fail) and
  // eight strangers inside the +-tau length window, roughly the join's
  // verify precision.
  Rng rng(7700);
  std::vector<std::string> queries;
  std::vector<std::vector<std::string>> texts;
  for (int i = 0; i < bench::Scaled(2000); ++i) {
    const std::string& query = data[rng.NextBounded(data.size())];
    std::vector<std::string> mine;
    std::string copy = query;
    const int edits = static_cast<int>(rng.NextBounded(row.tau + 2));
    for (int e = 0; e < edits && !copy.empty(); ++e) {
      copy[rng.NextBounded(copy.size())] =
          static_cast<char>('a' + rng.NextBounded(26));
    }
    mine.push_back(copy);
    while (mine.size() < 9) {
      const std::string& other = data[rng.NextBounded(data.size())];
      const int gap = static_cast<int>(other.size()) -
                      static_cast<int>(query.size());
      if (std::abs(gap) <= row.tau) mine.push_back(other);
    }
    queries.push_back(query);
    texts.push_back(std::move(mine));
    row.pairs += 9;
  }
  row.queries = static_cast<int>(queries.size());

  // Verdict self-check before timing.
  for (size_t q = 0; q < queries.size(); ++q) {
    const editdist::EditVerifier verifier(queries[q], row.tau);
    for (const std::string& text : texts[q]) {
      const bool banded =
          editdist::BandedEditDistance(text, queries[q], row.tau) <= row.tau;
      if (verifier.Matches(text) != banded) {
        std::fprintf(stderr,
                     "FATAL: bit-parallel/banded verdict mismatch: '%s' vs "
                     "'%s'\n",
                     queries[q].c_str(), text.c_str());
        std::exit(1);
      }
      row.matches += banded ? 1 : 0;
    }
  }

  const double pairs = static_cast<double>(row.pairs) * repeats;
  int64_t sink = 0;
  StopWatch watch;
  for (int r = 0; r < repeats; ++r) {
    for (size_t q = 0; q < queries.size(); ++q) {
      for (const std::string& text : texts[q]) {
        sink += editdist::BandedEditDistance(text, queries[q], row.tau);
      }
    }
  }
  row.banded_ns_per_pair = watch.ElapsedMillis() * 1e6 / pairs;
  watch.Restart();
  for (int r = 0; r < repeats; ++r) {
    for (size_t q = 0; q < queries.size(); ++q) {
      const editdist::EditVerifier verifier(queries[q], row.tau);
      for (const std::string& text : texts[q]) {
        sink += verifier.Distance(text);
      }
    }
  }
  row.bit_parallel_ns_per_pair = watch.ElapsedMillis() * 1e6 / pairs;
  row.speedup = row.banded_ns_per_pair /
                std::max(1e-9, row.bit_parallel_ns_per_pair);
  if (sink == 42) std::printf(" ");
  return row;
}

void WriteJson(const std::string& path,
               const std::vector<VerifyPanelRow>& verify,
               const std::vector<IsaSweepRow>& sweep,
               const SearchPanelRow& search,
               const std::vector<SelectRow>& select,
               const EditVerifyRow& edit_verify) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"kernels\",\n");
  std::fprintf(f, "  \"scale\": %g,\n", bench::Scale());
  std::fprintf(f, "  \"kernel_isa\": \"%s\",\n",
               kernels::IsaName(kernels::ActiveIsa()));
  std::fprintf(f, "  \"verify_leq\": [\n");
  for (size_t i = 0; i < verify.size(); ++i) {
    const VerifyPanelRow& r = verify[i];
    std::fprintf(f,
                 "    {\"dimensions\": %d, \"tau\": %d, \"rows\": %d, "
                 "\"queries\": %d, \"baseline_scalar_loop_ns_per_pair\": "
                 "%.3f, \"kernel_leq_ns_per_pair\": %.3f, \"speedup\": "
                 "%.3f}%s\n",
                 r.dimensions, r.tau, r.rows, r.queries,
                 r.baseline_ns_per_pair, r.kernel_ns_per_pair, r.speedup,
                 i + 1 == verify.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"isa_sweep_d512\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    std::fprintf(f, "    {\"isa\": \"%s\", \"kernel_ns_per_pair\": %.3f}%s\n",
                 sweep[i].isa.c_str(), sweep[i].kernel_ns_per_pair,
                 i + 1 == sweep.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"search_hamming_d128\": {\"objects\": %d, \"queries\": "
               "%d, \"millis_per_query\": %.4f, \"results\": %lld},\n",
               search.num_objects, search.num_queries,
               search.millis_per_query,
               static_cast<long long>(search.results));
  std::fprintf(f, "  \"select_strings_join_tau2\": [\n");
  for (size_t i = 0; i < select.size(); ++i) {
    const SelectRow& r = select[i];
    std::fprintf(f,
                 "    {\"isa\": \"%s\", \"calls\": %lld, \"postings\": "
                 "%lld, \"ns_per_posting\": %.3f}%s\n",
                 r.isa.c_str(), static_cast<long long>(r.calls),
                 static_cast<long long>(r.postings), r.ns_per_posting,
                 i + 1 == select.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"verify_edit_tau2\": {\"queries\": %d, \"pairs\": %lld, "
               "\"matches\": %lld, \"banded_ns_per_pair\": %.3f, "
               "\"bit_parallel_ns_per_pair\": %.3f, \"speedup\": %.3f}\n",
               edit_verify.queries, static_cast<long long>(edit_verify.pairs),
               static_cast<long long>(edit_verify.matches),
               edit_verify.banded_ns_per_pair,
               edit_verify.bit_parallel_ns_per_pair, edit_verify.speedup);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  std::printf(
      "== Kernel panel: verification before/after the kernel layer ==\n");
  std::printf("dispatch: best=%s active=%s\n\n",
              kernels::IsaName(kernels::BestIsa()),
              kernels::IsaName(kernels::ActiveIsa()));

  const int repeats = std::max(1, bench::Scaled(10));
  std::vector<VerifyPanelRow> verify;
  {
    Table table("verify H(x,q) <= tau: pre-PR scalar loop vs kernel batch",
                {"d", "tau", "baseline ns/pair", "kernel ns/pair", "speedup"});
    for (const int d : {64, 128, 256, 512}) {
      verify.push_back(RunVerifyPanel(d, repeats));
      const VerifyPanelRow& r = verify.back();
      table.AddRow({Table::Int(r.dimensions), Table::Int(r.tau),
                    Table::Num(r.baseline_ns_per_pair, 2),
                    Table::Num(r.kernel_ns_per_pair, 2),
                    Table::Num(r.speedup, 2) + "x"});
    }
    table.Print();
    std::printf("\n");
  }

  std::vector<IsaSweepRow> sweep = RunIsaSweep(512, repeats);
  {
    Table table("same batched kernel pinned per dispatch path (d = 512)",
                {"isa", "kernel ns/pair"});
    for (const IsaSweepRow& r : sweep) {
      table.AddRow({r.isa, Table::Num(r.kernel_ns_per_pair, 2)});
    }
    table.Print();
    std::printf("\n");
  }

  const SearchPanelRow search = RunSearchPanel();
  std::printf(
      "end-to-end HammingSearcher::Search (d=128, tau=12, l=4): %d objects, "
      "%d queries, %.3f ms/query, %lld results\n",
      search.num_objects, search.num_queries, search.millis_per_query,
      static_cast<long long>(search.results));


  const std::vector<SelectRow> select = RunSelectPanel(repeats);
  {
    Table table(
        "edit posting select per dispatch path (strings self-join lists, "
        "tau 2)",
        {"isa", "calls", "postings", "ns/posting"});
    for (const SelectRow& r : select) {
      table.AddRow({r.isa, Table::Int(r.calls), Table::Int(r.postings),
                    Table::Num(r.ns_per_posting, 3)});
    }
    table.Print();
    std::printf("\n");
  }

  const EditVerifyRow edit_verify = RunEditVerifyPanel(repeats);
  {
    Table table("verify ed(x,q) <= 2: banded DP vs bit-parallel",
                {"pairs", "matches", "banded ns/pair", "bit-parallel ns/pair",
                 "speedup"});
    table.AddRow({Table::Int(edit_verify.pairs),
                  Table::Int(edit_verify.matches),
                  Table::Num(edit_verify.banded_ns_per_pair, 2),
                  Table::Num(edit_verify.bit_parallel_ns_per_pair, 2),
                  Table::Num(edit_verify.speedup, 2) + "x"});
    table.Print();
  }

  if (!json_path.empty()) {
    WriteJson(json_path, verify, sweep, search, select, edit_verify);
  }
  return 0;
}
