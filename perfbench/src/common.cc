#include "common.h"

#include <cstring>

namespace perfbench {

Lane* Tracer::NewLane() {
  std::lock_guard<std::mutex> lock(mu_);
  lanes_.push_back(std::make_unique<Lane>(lanes_.size() + 1));
  return lanes_.back().get();
}

std::vector<double> Tracer::DurationsUs(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& lane : lanes_) {
    for (const Span& span : lane->spans()) {
      if (std::strcmp(span.name, name) == 0) {
        out.push_back((span.end_ns - span.start_ns) / 1e3);
      }
    }
  }
  return out;
}

bool Tracer::HasSpan(const char* name) const {
  return !DurationsUs(name).empty();
}

template <typename Fn>
void Tracer::ForEachCounter(const char* name, Fn fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& lane : lanes_) {
    for (const Counter& counter : lane->counters()) {
      if (std::strcmp(counter.name, name) == 0) fn(counter.value);
    }
  }
}

double Tracer::Sum(const char* name) const {
  double sum = 0;
  ForEachCounter(name, [&](double value) { sum += value; });
  return sum;
}

double Tracer::Max(const char* name) const {
  double max = 0;
  ForEachCounter(name, [&](double value) { max = std::max(max, value); });
  return max;
}

double Tracer::Mean(const char* name) const {
  double sum = 0;
  int64_t count = 0;
  ForEachCounter(name, [&](double value) {
    sum += value;
    ++count;
  });
  return count == 0 ? 0 : sum / count;
}

bool Tracer::Write(const std::string& path,
                   const std::string& header_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header_json.c_str());
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& lane : lanes_) {
    for (const Span& s : lane->spans()) {
      std::fprintf(f,
                   "{\"span\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                   s.name, static_cast<long long>(s.start_ns - origin_ns_),
                   static_cast<long long>(s.end_ns - origin_ns_),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    for (const Counter& c : lane->counters()) {
      std::fprintf(f, "{\"count\":\"%s\",\"value\":%.17g,\"request\":%llu}\n",
                   c.name, c.value, static_cast<unsigned long long>(c.request));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
