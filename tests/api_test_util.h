// Shared helpers for the test suites: counter comparisons that stay in
// lockstep when engine::QueryStats grows a counter, and hermetic scratch
// files for every suite that writes to disk.

#ifndef PIGEONRING_TESTS_API_TEST_UTIL_H_
#define PIGEONRING_TESTS_API_TEST_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "engine/query_stats.h"

namespace pigeonring::api {

// Deterministic counters only — wall clock is never comparable.
inline void ExpectSameCounters(const engine::QueryStats& a,
                               const engine::QueryStats& b) {
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.candidates_stage2, b.candidates_stage2);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.index_hits, b.index_hits);
  EXPECT_EQ(a.chain_checks, b.chain_checks);
  EXPECT_EQ(a.subiso_tests, b.subiso_tests);
  EXPECT_EQ(a.fast_path_candidates, b.fast_path_candidates);
  EXPECT_EQ(a.fast_path_hits, b.fast_path_hits);
}

// A path unique to the running test and process:
// TempDir()/pigeonring_test.<pid>/<Suite>.<Test>.<name>. ctest runs every
// gtest case as its own process, in parallel under -j, so a fixed file name
// shared by two cases (or two concurrent runs) lets them clobber each
// other's files. The per-process directory is removed at exit.
inline std::string ScratchPath(const std::string& name) {
  struct ProcessDir {
    ProcessDir() { std::filesystem::create_directories(path); }
    ~ProcessDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
    ProcessDir(const ProcessDir&) = delete;
    ProcessDir& operator=(const ProcessDir&) = delete;

    const std::filesystem::path path =
        std::filesystem::path(testing::TempDir()) /
        ("pigeonring_test." + std::to_string(::getpid()));
  };
  static const ProcessDir dir;
  const testing::TestInfo* test =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string stem = test == nullptr ? std::string("global")
                                     : std::string(test->test_suite_name()) +
                                           "." + test->name();
  std::replace(stem.begin(), stem.end(), '/', '_');  // parameterized names
  return (dir.path / (stem + "." + name)).string();
}

inline std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

inline void WriteFileBytes(const std::string& path,
                           const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  if (!bytes.empty()) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  ASSERT_TRUE(out.good()) << path;
}

// Saves `db` to ScratchPath(name) and returns the file's bytes.
inline std::vector<uint8_t> SavedBytes(const Db& db, const std::string& name) {
  const std::string path = ScratchPath(name);
  const Status saved = db.Save(path);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return ReadFileBytes(path);
}

}  // namespace pigeonring::api

#endif  // PIGEONRING_TESTS_API_TEST_UTIL_H_
