// Shared helpers for the figure-reproduction benchmarks.
//
// Every bench binary prints one table per figure panel with the same series
// the paper reports. Dataset sizes are laptop-scale; set the environment
// variable PIGEONRING_BENCH_SCALE (e.g. 0.2 or 2.0) to shrink or grow every
// dataset and query batch proportionally.

#ifndef PIGEONRING_BENCH_BENCH_UTIL_H_
#define PIGEONRING_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/db.h"
#include "common/table.h"
#include "engine/engine.h"

namespace pigeonring::bench {

/// Global size multiplier from PIGEONRING_BENCH_SCALE (default 1.0).
inline double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("PIGEONRING_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double v = std::atof(env);
    return v > 0 ? v : 1.0;
  }();
  return scale;
}

/// Applies the scale to a nominal count (minimum 1).
inline int Scaled(int nominal) {
  const int v = static_cast<int>(nominal * Scale());
  return v < 1 ? 1 : v;
}

/// Accumulates per-query stats and reports averages.
struct Avg {
  double sum = 0;
  int n = 0;
  void Add(double v) {
    sum += v;
    ++n;
  }
  double Mean() const { return n == 0 ? 0 : sum / n; }
};

/// Self-joins `db` through the public api::Db facade sequentially and at
/// each count in `thread_counts`, aborts if a call fails or any parallel
/// run diverges from the sequential pairs, and prints a threads / pairs /
/// time / speedup table titled `title`.
inline void RunDbJoinScalingTable(const std::string& title, const api::Db& db,
                                  const std::vector<int>& thread_counts) {
  auto run = [&db](int threads, engine::JoinStats* stats) {
    api::RunOptions options;
    options.num_threads = threads;
    api::Session session = db.NewSession();
    auto join = session.SelfJoin(options);
    if (!join.ok()) {
      std::fprintf(stderr, "FATAL: SelfJoin failed: %s\n",
                   join.status().ToString().c_str());
      std::exit(1);
    }
    *stats = join->stats;
    return std::move(join->pairs);
  };
  engine::JoinStats seq_stats;
  const auto expected = run(1, &seq_stats);
  Table table(title, {"threads", "pairs", "time (ms)", "speedup"});
  table.AddRow({"1", Table::Int(seq_stats.pairs),
                Table::Num(seq_stats.total_millis, 1), "1.00x"});
  for (int threads : thread_counts) {
    engine::JoinStats stats;
    const auto pairs = run(threads, &stats);
    if (pairs != expected) {
      std::fprintf(stderr, "FATAL: %d-thread join diverged from sequential\n",
                   threads);
      std::exit(1);
    }
    table.AddRow({Table::Int(threads), Table::Int(stats.pairs),
                  Table::Num(stats.total_millis, 1),
                  Table::Num(seq_stats.total_millis /
                                 std::max(1e-9, stats.total_millis),
                             2) +
                      "x"});
  }
  table.Print();
  std::printf("\n");
}

/// Unwraps a StatusOr in bench context, aborting on error.
template <typename T>
inline T BenchUnwrap(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    std::fprintf(stderr, "FATAL: %s: %s\n", what,
                 value.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(value).value();
}

}  // namespace pigeonring::bench

#endif  // PIGEONRING_BENCH_BENCH_UTIL_H_
