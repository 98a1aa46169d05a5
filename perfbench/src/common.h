// Plumbing shared by the perfbench workloads: the run configuration and
// result, the in-memory span recorder, the closed-loop client driver, and
// error helpers.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "common/status.h"
#include "stats.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One timed call into a library layer. Spans of one request share
// `request`; `parent` is the id of the span that caused this one. 0 means
// none for both.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
};

// A count observed at a layer boundary: candidates of a batch, pending
// writer mutations, bytes of a saved index.
struct Counter {
  const char* name = "";
  double value = 0;
  uint64_t request = 0;
};

// One recording thread's spans and counters. Names must be string
// literals: only the pointer is kept.
class Lane {
 public:
  explicit Lane(uint64_t lane) : next_id_(lane << 40) {}

  // An id for a span recorded later, so its children can name it.
  uint64_t Reserve() { return ++next_id_; }

  void RecordAs(uint64_t id, const char* name, int64_t start_ns,
                int64_t end_ns, uint64_t parent = 0, uint64_t request = 0) {
    spans_.push_back({name, start_ns, end_ns, id, parent, request});
  }
  uint64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                  uint64_t parent = 0, uint64_t request = 0) {
    const uint64_t id = Reserve();
    RecordAs(id, name, start_ns, end_ns, parent, request);
    return id;
  }
  void Count(const char* name, double value, uint64_t request = 0) {
    counters_.push_back({name, value, request});
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Counter>& counters() const { return counters_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
};

// Owns every lane of a traced run. NewLane may be called from any thread;
// the queries read the lanes and run only after every recording thread
// has been joined.
class Tracer {
 public:
  Tracer() : origin_ns_(NowNs()) {}

  Lane* NewLane();

  std::vector<double> DurationsUs(const char* name) const;
  bool HasSpan(const char* name) const;
  double Sum(const char* name) const;
  double Max(const char* name) const;
  double Mean(const char* name) const;

  // Writes `header_json` and then every span and counter as JSON lines,
  // times relative to the tracer's creation.
  bool Write(const std::string& path, const std::string& header_json) const;

 private:
  template <typename Fn>
  void ForEachCounter(const char* name, Fn fn) const;

  const int64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // guarded by mu_
};

inline Lane* LaneOf(Tracer* tracer) {
  return tracer == nullptr ? nullptr : tracer->NewLane();
}

inline uint64_t RequestId(int client, int64_t iteration) {
  return (static_cast<uint64_t>(client + 1) << 40) |
         static_cast<uint64_t>(iteration);
}

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string out_dir;        // index files and the trace
  Tracer* tracer = nullptr;   // null with tracing off
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;  // failed + shed + wrong-answer ops
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> layer;
  int threads = 0;      // compute threads per request or join
  int connections = 0;  // closed-loop clients or connections

  void Fail(const std::string& what) {
    correct = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
};

// Set-up and probe calls are expected to succeed; a failure means the run
// cannot measure anything, so it ends the process without a result.
template <typename T>
T Unwrap(pigeonring::StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 value.status().ToString().c_str());
    std::exit(3);
  }
  return std::move(value).value();
}

inline void Require(const pigeonring::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(3);
  }
}

enum class Outcome { kOk, kFailed, kShed, kWrong };

struct OpResult {
  Outcome outcome = Outcome::kOk;
  int64_t units = 1;  // read queries the op answered
};

// The read rate is reported as the median over this many equal
// consecutive slices of a timed window (by completion order) of each
// slice's rate, so that one stall of the whole machine moves one slice,
// not the result. Latency percentiles are exact over the whole window.
inline constexpr int kSlices = 10;

// What a timed window measured, summed over its clients.
struct LoopResult {
  std::vector<double> latency_ms;  // ops answered correctly
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t shed = 0;
  int64_t wrong = 0;
  int64_t units = 0;  // read queries answered correctly
  double wall_s = 0;
  std::vector<double> slice_qps;

  void Merge(const LoopResult& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    slice_qps.insert(slice_qps.end(), other.slice_qps.begin(),
                     other.slice_qps.end());
    attempted += other.attempted;
    failed += other.failed;
    shed += other.shed;
    wrong += other.wrong;
    units += other.units;
    wall_s += other.wall_s;
  }
};

// Runs `clients` closed-loop threads for `seconds`: each calls
// op(client, iteration, lane, span_id) back to back, and the driver times
// every call. With a tracer, each call is recorded as span `span_name`
// under `span_id`, which spans the op records inside name as parent.
// Without `keep_samples` (a warm-up) only the op counts are kept, so that
// the benchmark's own samples do not add to peak_rss_mb.
template <typename Op>
LoopResult RunClosedLoop(int clients, double seconds, Tracer* tracer,
                         const char* span_name, Op& op, bool keep_samples) {
  std::vector<LoopResult> per_client(clients);
  // Completion time and units of each latency sample.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> done(clients);
  std::vector<Lane*> lanes(clients, nullptr);
  for (Lane*& lane : lanes) lane = LaneOf(tracer);
  std::vector<int64_t> last_end(clients, 0);
  std::atomic<int> ready{0};
  std::atomic<int64_t> start{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      int64_t begin = 0;
      while ((begin = start.load(std::memory_order_acquire)) == 0) {
        std::this_thread::yield();
      }
      const int64_t deadline = begin + static_cast<int64_t>(seconds * 1e9);
      LoopResult& r = per_client[c];
      Lane* lane = lanes[c];
      for (int64_t i = 0; NowNs() < deadline; ++i) {
        const uint64_t id = lane == nullptr ? 0 : lane->Reserve();
        const int64_t t0 = NowNs();
        const OpResult result = op(c, i, lane, id);
        const int64_t t1 = NowNs();
        if (lane != nullptr) {
          lane->RecordAs(id, span_name, t0, t1, 0, RequestId(c, i));
        }
        ++r.attempted;
        switch (result.outcome) {
          case Outcome::kOk:
            r.units += result.units;
            if (!keep_samples) break;
            r.latency_ms.push_back((t1 - t0) / 1e6);
            done[c].emplace_back(t1, result.units);
            break;
          case Outcome::kFailed:
            ++r.failed;
            break;
          case Outcome::kShed:
            ++r.shed;
            break;
          case Outcome::kWrong:
            ++r.wrong;
            break;
        }
        last_end[c] = t1;
      }
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  const int64_t begin = NowNs();
  start.store(begin, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  LoopResult total;
  for (const LoopResult& r : per_client) total.Merge(r);
  total.wall_s = (*std::max_element(last_end.begin(), last_end.end()) -
                  begin) / 1e9;
  // Every client's samples in completion order: (done, latency, units).
  std::vector<std::tuple<int64_t, double, int64_t>> by_time;
  for (int c = 0; c < clients; ++c) {
    for (size_t j = 0; j < done[c].size(); ++j) {
      by_time.emplace_back(done[c][j].first, per_client[c].latency_ms[j],
                           done[c][j].second);
    }
  }
  std::sort(by_time.begin(), by_time.end());
  // A closed loop keeps one op in flight per client, so a slice's read
  // rate is clients x its units / its summed op time. Unlike counting the
  // ops that complete in a fixed interval, this does not jump by a whole
  // op when a slice holds only a few long ones (strings-join's joins).
  const size_t n = by_time.size();
  for (size_t k = 0; k < kSlices; ++k) {
    double units = 0;
    double busy_s = 0;
    for (size_t j = n * k / kSlices; j < n * (k + 1) / kSlices; ++j) {
      busy_s += std::get<1>(by_time[j]) / 1e3;
      units += static_cast<double>(std::get<2>(by_time[j]));
    }
    total.slice_qps.push_back(busy_s > 0 ? clients * units / busy_s : 0);
  }
  return total;
}

// Untimed load before every timed window: read rates climb for the first
// second or so of load on a freshly started process.
inline constexpr double kWarmupSeconds = 2;

inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // KiB on Linux
}

// The timed window, after kWarmupSeconds of the same load; `window` is
// called as window(seconds, tracer, timed). With tracing off it is one
// window of config.seconds. With tracing on it is an untraced half and
// then a traced half; their read rates give the tracing overhead, and the
// merged result is returned.
//
// peak_rss_mb is taken after the warm-up load, which keeps no latency
// samples, and before the timed window, whose samples grow with the read
// rate: a faster program must not read as a bigger one.
template <typename Window>
LoopResult MeasureWindow(const RunConfig& config, RunResult* result,
                         Window window) {
  window(kWarmupSeconds, nullptr, false);
  result->end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
  if (config.tracer == nullptr) return window(config.seconds, nullptr, true);
  LoopResult untraced = window(config.seconds / 2, nullptr, true);
  LoopResult traced = window(config.seconds / 2, config.tracer, true);
  Lane* lane = config.tracer->NewLane();
  lane->Count("trace.qps_untraced",
              untraced.units / std::max(untraced.wall_s, 1e-9));
  lane->Count("trace.qps_traced", traced.units / std::max(traced.wall_s, 1e-9));
  untraced.Merge(traced);
  return untraced;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
