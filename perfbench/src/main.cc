// perfbench: the repository benchmark's workload driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// Runs one workload (workloads.cc), checks its answers, prints a summary
// on stderr and, as the last line of stdout, one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics, measured with tracing off. With --trace 1 the
// run records spans and counters around its calls into each library
// layer, writes them to DIR as JSON lines, and the metrics are the
// per-layer metrics derived from them (probes.cc).
//
// Exit codes: 0 every answer correct; 1 a wrong answer or failed oracle,
// after the result is printed; 2 bad usage; 3 a workload that could not be
// set up.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "common.h"
#include "kernels/kernels.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::RunResult;

std::string ResultJson(const RunResult& result,
                       const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  const char* separator = "";
  for (const auto& [name, metric] : metrics) {
    // JSON has no NaN or infinity.
    const double value = std::isfinite(metric.value) ? metric.value : 0;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    out += separator;
    out += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
           metric.unit + "\"}";
    separator = ", ";
  }
  return out + "}}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string trace = "0";
  if (argc % 2 == 0) return Usage();
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = value;
      } else if (flag == "--out") {
        config.out_dir = value;
      } else {
        return Usage();
      }
    }
  } catch (const std::exception&) {
    return Usage();
  }
  if (config.workload.empty() || config.out_dir.empty() ||
      !(config.seconds > 0) || (trace != "0" && trace != "1")) {
    return Usage();
  }
  std::filesystem::create_directories(config.out_dir);
  perfbench::Tracer tracer;
  if (trace == "1") config.tracer = &tracer;

  RunResult result;
  if (!perfbench::RunWorkload(config, &result)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 config.workload.c_str());
    return 2;
  }
  std::fprintf(stderr,
               "%s seed %llu: %d thread(s) per request, %d client(s); "
               "%lld ops attempted, %lld failed, error_rate %.6f\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed), result.threads,
               result.connections, static_cast<long long>(result.attempted),
               static_cast<long long>(result.failed),
               static_cast<double>(result.failed) /
                   std::max<int64_t>(1, result.attempted));
  std::fprintf(stderr, "end-to-end metrics%s:\n",
               config.tracer == nullptr ? "" : " (traced run, both halves)");
  for (const auto& [name, metric] : result.end_to_end) {
    std::fprintf(stderr, "  %-20s %16.6f %s\n", name.c_str(), metric.value,
                 metric.unit.c_str());
  }
  if (config.tracer != nullptr) {
    perfbench::DeriveLayerMetrics(tracer, &result);
    perfbench::PrintLayerMetrics(result);
    const std::string path = config.out_dir + "/trace-" + config.workload +
                             "-seed" + std::to_string(config.seed) + ".jsonl";
    const std::string header =
        "{\"workload\":\"" + config.workload + "\",\"seed\":" +
        std::to_string(config.seed) + ",\"seconds\":" +
        std::to_string(config.seconds) + ",\"threads_per_request\":" +
        std::to_string(result.threads) + ",\"clients\":" +
        std::to_string(result.connections) + ",\"kernel_isa\":\"" +
        pigeonring::kernels::IsaName(pigeonring::kernels::ActiveIsa()) +
        "\",\"end_to_end\":" + ResultJson(result, result.end_to_end) + "}";
    if (tracer.Write(path, header)) {
      std::fprintf(stderr, "trace written to %s\n", path.c_str());
    } else {
      result.Fail("cannot write the trace to " + path);
    }
  }
  std::printf("%s\n",
              ResultJson(result, config.tracer == nullptr ? result.end_to_end
                                                          : result.layer)
                  .c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
