#include "setsim/record.h"

#include <algorithm>
#include <map>

namespace pigeonring::setsim {

int Overlap(const RankedSet& x, const RankedSet& y) {
  int overlap = 0;
  size_t i = 0, j = 0;
  while (i < x.size() && j < y.size()) {
    if (x[i] == y[j]) {
      ++overlap;
      ++i;
      ++j;
    } else if (x[i] < y[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return overlap;
}

bool OverlapAtLeast(const RankedSet& x, const RankedSet& y, int required) {
  if (required <= 0) return true;
  int overlap = 0;
  size_t i = 0, j = 0;
  while (i < x.size() && j < y.size()) {
    // Early termination: even matching everything left cannot reach the
    // requirement.
    const int best = overlap + static_cast<int>(
                                   std::min(x.size() - i, y.size() - j));
    if (best < required) return false;
    if (x[i] == y[j]) {
      if (++overlap >= required) return true;
      ++i;
      ++j;
    } else if (x[i] < y[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return overlap >= required;
}

double Jaccard(const RankedSet& x, const RankedSet& y) {
  if (x.empty() && y.empty()) return 1.0;
  const int overlap = Overlap(x, y);
  return static_cast<double>(overlap) /
         static_cast<double>(x.size() + y.size() - overlap);
}

SetCollection::SetCollection(const std::vector<std::vector<int>>& raw) {
  // Token frequencies over deduplicated records.
  std::vector<std::vector<int>> dedup(raw.size());
  std::unordered_map<int, int> freq;
  for (size_t r = 0; r < raw.size(); ++r) {
    dedup[r] = raw[r];
    std::sort(dedup[r].begin(), dedup[r].end());
    dedup[r].erase(std::unique(dedup[r].begin(), dedup[r].end()),
                   dedup[r].end());
    for (int token : dedup[r]) ++freq[token];
  }
  // Global order: increasing frequency, ties by token value.
  std::vector<std::pair<int, int>> order;  // (freq, token)
  order.reserve(freq.size());
  for (const auto& [token, f] : freq) order.emplace_back(f, token);
  std::sort(order.begin(), order.end());
  token_to_rank_.reserve(order.size());
  rank_to_token_.reserve(order.size());
  for (size_t rank = 0; rank < order.size(); ++rank) {
    token_to_rank_[order[rank].second] = static_cast<int>(rank);
    rank_to_token_.push_back(order[rank].second);
  }
  universe_size_ = static_cast<int>(order.size());
  // Convert records.
  records_.resize(raw.size());
  for (size_t r = 0; r < raw.size(); ++r) {
    RankedSet& rec = records_[r];
    rec.reserve(dedup[r].size());
    for (int token : dedup[r]) rec.push_back(token_to_rank_.at(token));
    std::sort(rec.begin(), rec.end());
  }
}

SetCollection SetCollection::FromBuilt(
    std::vector<std::pair<int, int>> dictionary,
    std::vector<RankedSet> records, int universe_size) {
  PR_CHECK(static_cast<int>(dictionary.size()) == universe_size);
  SetCollection c;
  c.token_to_rank_.reserve(dictionary.size());
  c.rank_to_token_.assign(dictionary.size(), 0);
  for (const auto& [token, rank] : dictionary) {
    c.token_to_rank_[token] = rank;
    // A well-formed dictionary is a permutation of [0, universe); a
    // corrupted-but-decodable index file may not be. Skipping bad ranks
    // keeps the no-crash contract — the storage tests load such files.
    if (rank >= 0 && rank < universe_size) c.rank_to_token_[rank] = token;
  }
  c.records_ = std::move(records);
  c.universe_size_ = universe_size;
  return c;
}

std::vector<std::pair<int, int>> SetCollection::ExportDictionary() const {
  std::vector<std::pair<int, int>> out(token_to_rank_.begin(),
                                       token_to_rank_.end());
  std::sort(out.begin(), out.end());
  return out;
}

RankedSet SetCollection::MapQuery(const std::vector<int>& raw_query) const {
  RankedSet mapped;
  mapped.reserve(raw_query.size());
  int next_unknown = -1;
  std::vector<int> sorted = raw_query;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (int token : sorted) {
    auto it = token_to_rank_.find(token);
    mapped.push_back(it != token_to_rank_.end() ? it->second
                                                : next_unknown--);
  }
  std::sort(mapped.begin(), mapped.end());
  return mapped;
}

std::optional<int> SetCollection::Token(int rank) const {
  if (rank < 0 || rank >= static_cast<int>(rank_to_token_.size())) {
    return std::nullopt;
  }
  return rank_to_token_[rank];
}

std::vector<int> SetCollection::RawRecord(int id) const {
  std::vector<int> tokens;
  tokens.reserve(records_[id].size());
  for (int rank : records_[id]) tokens.push_back(Token(rank).value_or(rank));
  std::sort(tokens.begin(), tokens.end());
  return tokens;
}

}  // namespace pigeonring::setsim
