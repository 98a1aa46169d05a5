#include "editdist/casedec.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <utility>

#include "common/timer.h"
#include "editdist/verify.h"

namespace pigeonring::editdist {

int CaseDecSearcher::UniformLength(const std::vector<std::string>& data) {
  if (data.empty()) return 0;
  const int length = static_cast<int>(data.front().size());
  if (length < 1 || length > kMaxLength) return -1;
  for (const std::string& s : data) {
    if (static_cast<int>(s.size()) != length) return -1;
  }
  return length;
}

int CaseDecSearcher::NumCases(int length, int tau) {
  PR_CHECK(length >= 0 && tau >= 0);
  // tau >= length makes even the j = 0 filter all-pass (a character
  // threshold of tau covers all length mismatches), so filtering buys
  // nothing: verify every record instead.
  if (length == 0 || tau >= length) return 0;
  // An optimal alignment has j <= floor(tau / 2) (each indel pair costs
  // 2) and j <= length - 1 (deleting everything costs 2 length > length).
  return std::min(tau / 2, length - 1) + 1;
}

int64_t CaseDecSearcher::VariantsPerRecord(int length, int indels) {
  PR_CHECK(0 <= indels && indels <= length);
  // C(n, k) = prod_{i=1..k} (n - k + i) / i, exact at every step.
  unsigned __int128 c = 1;
  for (int i = 1; i <= indels; ++i) {
    c = c * static_cast<unsigned>(length - indels + i) /
        static_cast<unsigned>(i);
    if (c > static_cast<unsigned __int128>(INT64_MAX)) return INT64_MAX;
  }
  return static_cast<int64_t>(c);
}

int CaseDecSearcher::CaseNumParts(int length, int indels, int hamming_tau) {
  const int dims = (length - indels) * kBitsPerChar;
  PR_CHECK(dims >= 1);
  int m = std::max((dims + 63) / 64, hamming_tau + 1);
  return std::min(m, std::min(64, dims));
}

BitVector CaseDecSearcher::EncodeVariant(std::string_view s,
                                         const std::vector<int>& deleted) {
  const int indels = static_cast<int>(deleted.size());
  BitVector signature((static_cast<int>(s.size()) - indels) * kBitsPerChar);
  int k = 0;
  int next_deleted = 0;
  for (int p = 0; p < static_cast<int>(s.size()); ++p) {
    if (next_deleted < indels && deleted[next_deleted] == p) {
      ++next_deleted;
      continue;
    }
    signature.Set(k * kBitsPerChar + (static_cast<unsigned char>(s[p]) & 31),
                  true);
    ++k;
  }
  return signature;
}

std::vector<BitVector> CaseDecSearcher::BuildCaseRows(
    const std::vector<std::string>& data, int length, int indels) {
  const int64_t variants = VariantsPerRecord(length, indels);
  PR_CHECK_MSG(variants < INT32_MAX &&
                   variants * static_cast<int64_t>(data.size()) < INT32_MAX,
               "case decomposition would exceed 2^31 signature rows");
  std::vector<BitVector> rows;
  rows.reserve(variants * data.size());
  for (const std::string& s : data) {
    ForEachDeletionSet(length, indels, [&](const std::vector<int>& deleted) {
      rows.push_back(EncodeVariant(s, deleted));
    });
  }
  return rows;
}

uint64_t CaseDecSearcher::HashVariant(std::string_view s,
                                      const std::vector<int>& deleted) {
  const int indels = static_cast<int>(deleted.size());
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  int next_deleted = 0;
  for (int p = 0; p < static_cast<int>(s.size()); ++p) {
    if (next_deleted < indels && deleted[next_deleted] == p) {
      ++next_deleted;
      continue;
    }
    h ^= static_cast<unsigned char>(s[p]) & 31u;
    h *= 1099511628211ull;  // FNV-1a prime
  }
  return h;
}

std::vector<std::pair<uint64_t, int32_t>> CaseDecSearcher::BuildExactIndex(
    const std::vector<std::string>& data, int length, int indels) {
  std::vector<std::pair<uint64_t, int32_t>> table;
  table.reserve(VariantsPerRecord(length, indels) * data.size());
  int32_t row = 0;
  for (const std::string& s : data) {
    ForEachDeletionSet(length, indels, [&](const std::vector<int>& deleted) {
      table.emplace_back(HashVariant(s, deleted), row);
      ++row;
    });
  }
  std::sort(table.begin(), table.end());
  return table;
}

namespace {

// Derives the per-case exact-match tables (see Case::exact) after the
// Hamming searchers exist; shared by both construction paths.
void AttachExactIndexes(const std::vector<std::string>& data, int length,
                        std::vector<CaseDecSearcher::Case>& cases) {
  for (CaseDecSearcher::Case& c : cases) {
    if (c.hamming_tau != 0) continue;
    c.exact = std::make_shared<
        const std::vector<std::pair<uint64_t, int32_t>>>(
        CaseDecSearcher::BuildExactIndex(data, length, c.indels));
  }
}

}  // namespace

CaseDecSearcher::CaseDecSearcher(const std::vector<std::string>* data,
                                 int tau) {
  PR_CHECK(data != nullptr);
  PR_CHECK(tau >= 0);
  data_ = data;
  tau_ = tau;
  length_ = UniformLength(*data);
  PR_CHECK_MSG(length_ >= 0,
               "case decomposition requires one shared string length");
  const int num_cases = NumCases(length_, tau_);
  cases_.reserve(num_cases);
  for (int j = 0; j < num_cases; ++j) {
    const int hamming_tau = 2 * (tau_ - 2 * j);
    cases_.push_back(
        {j, hamming_tau,
         hamming::HammingSearcher(BuildCaseRows(*data, length_, j),
                                  CaseNumParts(length_, j, hamming_tau)),
         nullptr});
  }
  AttachExactIndexes(*data, length_, cases_);
  seen_epoch_.assign(data->size(), 0);
}

CaseDecSearcher CaseDecSearcher::FromBuilt(
    const std::vector<std::string>* data, int tau, std::vector<Case> cases) {
  PR_CHECK(data != nullptr);
  CaseDecSearcher s;
  s.data_ = data;
  s.tau_ = tau;
  s.length_ = UniformLength(*data);
  PR_CHECK_MSG(s.length_ >= 0,
               "case decomposition requires one shared string length");
  PR_CHECK(static_cast<int>(cases.size()) == NumCases(s.length_, tau));
  s.cases_ = std::move(cases);
  for (const Case& c : s.cases_) {
    const int64_t variants = VariantsPerRecord(s.length_, c.indels);
    PR_CHECK(c.searcher.num_objects() ==
             static_cast<int64_t>(data->size()) * variants);
  }
  AttachExactIndexes(*data, s.length_, s.cases_);
  s.seen_epoch_.assign(data->size(), 0);
  return s;
}

std::vector<int> CaseDecSearcher::Search(const std::string& query,
                                         int chain_length,
                                         engine::QueryStats* stats) {
  StopWatch total_watch;
  engine::QueryStats local;
  std::vector<int> results;
  const int n = static_cast<int>(data_->size());
  const int query_length = static_cast<int>(query.size());
  if (n > 0 && query_length != length_) {
    // The decomposition is defined for same-length pairs only; a
    // mixed-length query (never produced by a self-join over eligible
    // data) is answered by a sound banded-DP scan.
    if (std::abs(query_length - length_) <= tau_) {
      StopWatch verify_watch;
      for (int id = 0; id < n; ++id) {
        if (BandedEditDistance(query, (*data_)[id], tau_) <= tau_) {
          results.push_back(id);
        }
      }
      local.candidates = n;
      local.verify_millis = verify_watch.ElapsedMillis();
    }
    local.candidates_stage2 = local.candidates;
    local.fast_path_candidates = local.candidates;
    local.results = static_cast<int64_t>(results.size());
    local.total_millis = total_watch.ElapsedMillis();
    if (stats != nullptr) *stats = local;
    return results;
  }

  StopWatch phase_watch;
  std::vector<int> candidates;
  if (cases_.empty()) {
    // Verify-only regime (tau >= length): every record is a candidate.
    candidates.resize(n);
    for (int id = 0; id < n; ++id) candidates[id] = id;
  } else {
    ++epoch_;
    for (Case& c : cases_) {
      const int64_t variants = VariantsPerRecord(length_, c.indels);
      const auto admit_row = [&](int64_t row) {
        const int id = static_cast<int>(row / variants);
        if (seen_epoch_[id] == epoch_) return;
        seen_epoch_[id] = epoch_;
        candidates.push_back(id);
      };
      if (c.exact != nullptr) {
        // hamming_tau == 0: the filter is remnant equality, answered by
        // one binary search per query variant instead of a partition
        // probe whose single bucket would be chain-checked row by row.
        const auto& table = *c.exact;
        ForEachDeletionSet(
            length_, c.indels, [&](const std::vector<int>& deleted) {
              const uint64_t h = HashVariant(query, deleted);
              auto it = std::lower_bound(
                  table.begin(), table.end(),
                  std::make_pair(h, static_cast<int32_t>(0)));
              for (; it != table.end() && it->first == h; ++it) {
                ++local.index_hits;
                ++local.fast_path_hits;
                admit_row(it->second);
              }
            });
        continue;
      }
      ForEachDeletionSet(
          length_, c.indels, [&](const std::vector<int>& deleted) {
            const BitVector signature = EncodeVariant(query, deleted);
            engine::QueryStats hamming_stats;
            const std::vector<int> rows = c.searcher.Search(
                signature, c.hamming_tau, chain_length,
                hamming::AllocationMode::kRadiusZero, &hamming_stats);
            local.index_hits += hamming_stats.index_hits;
            local.chain_checks += hamming_stats.chain_checks;
            local.fast_path_hits += static_cast<int64_t>(rows.size());
            for (const int row : rows) admit_row(row);
          });
    }
  }
  local.candidates = static_cast<int64_t>(candidates.size());
  local.candidates_stage2 = local.candidates;
  local.fast_path_candidates = local.candidates;
  local.filter_millis = phase_watch.ElapsedMillis();

  phase_watch.Restart();
  for (const int id : candidates) {
    if (BandedEditDistance(query, (*data_)[id], tau_) <= tau_) {
      results.push_back(id);
    }
  }
  std::sort(results.begin(), results.end());
  local.verify_millis = phase_watch.ElapsedMillis();
  local.results = static_cast<int64_t>(results.size());
  local.total_millis = total_watch.ElapsedMillis();
  if (stats != nullptr) *stats = local;
  return results;
}

}  // namespace pigeonring::editdist
