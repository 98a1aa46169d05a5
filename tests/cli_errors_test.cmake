# Error-surface test for pigeonring_cli, run by CTest.
#
# The CLI promises two failure modes:
#   exit 2 — usage errors: unknown commands/domains/flags, malformed flag
#            syntax, unsupported --stats or --measure values;
#   exit 1 — typed Status errors from the api::Db layer: missing or
#            malformed datasets, invalid IndexSpec fields.
# Each case below asserts the exact exit code and a fragment of the
# diagnostic, so silent flag-swallowing (the pre-Db parser accepted any
# --flag and ignored it) cannot regress.
#
# Invoked as:
#   cmake -DPIGEONRING_CLI=<path> -DWORK_DIR=<dir> -P cli_errors_test.cmake

foreach(var PIGEONRING_CLI PIGEONRING_LOADGEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_errors_test.cmake requires -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(dataset "${WORK_DIR}/vectors.ds")

# expect_fail(<expected_rc> <stderr_fragment> <args...>)
function(expect_fail expected_rc fragment)
  execute_process(
    COMMAND ${PIGEONRING_CLI} ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL expected_rc)
    message(FATAL_ERROR
      "pigeonring_cli ${ARGN}: expected rc=${expected_rc}, got rc=${rc}\n"
      "stdout:\n${out}\nstderr:\n${err}")
  endif()
  if(NOT err MATCHES "${fragment}")
    message(FATAL_ERROR
      "pigeonring_cli ${ARGN}: stderr does not match '${fragment}'\n"
      "stderr:\n${err}")
  endif()
  message(STATUS "ok (rc=${rc}): pigeonring_cli ${ARGN}")
endfunction()

# A valid dataset for the cases that get past flag parsing.
execute_process(
  COMMAND ${PIGEONRING_CLI} gen vectors --out "${dataset}" --n 50 --dim 64
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gen failed (rc=${rc})")
endif()

# --- usage errors: exit 2 -------------------------------------------------
expect_fail(2 "usage")
expect_fail(2 "usage" frobnicate hamming)
expect_fail(2 "usage" search)
expect_fail(2 "unknown flag --frobnicate"
  search hamming --data "${dataset}" --tau 8 --frobnicate 1)
expect_fail(2 "unknown flag --queries"  # join has no --queries
  join hamming --data "${dataset}" --tau 8 --queries 5)
expect_fail(2 "unknown flag --measure"  # --measure is a sets flag
  search hamming --data "${dataset}" --tau 8 --measure overlap)
expect_fail(2 "unknown --stats mode 'json'"
  search hamming --data "${dataset}" --tau 8 --stats json)
expect_fail(2 "unknown --measure 'cosine'"
  search sets --data "${dataset}" --tau 0.8 --measure cosine)
expect_fail(2 "unknown --alloc 'greedy'"
  search hamming --data "${dataset}" --tau 8 --alloc greedy)
expect_fail(2 "bad flag syntax"
  search hamming --data "${dataset}" --tau)  # flag without a value
expect_fail(2 "--tau expects a number"
  search hamming --data "${dataset}" --tau oops)
expect_fail(2 "--queries expects an integer"
  search hamming --data "${dataset}" --tau 8 --queries 1e2)
expect_fail(2 "missing required flag --tau"
  search hamming --data "${dataset}")
expect_fail(2 "missing required flag --out" gen vectors --n 10)

# --- typed Status errors from the Db layer: exit 1 ------------------------
expect_fail(1 "NotFound"
  search hamming --data "${WORK_DIR}/missing.ds" --tau 8)
expect_fail(1 "InvalidArgument.*tau"
  search hamming --data "${dataset}" --tau -3)
expect_fail(1 "InvalidArgument.*chain_length"
  search hamming --data "${dataset}" --tau 8 --chain 99)
expect_fail(1 "InvalidArgument.*Jaccard"
  join sets --data "${dataset}" --tau 7)
expect_fail(1 "InvalidArgument"  # bit-vector file is not a token-set file
  search sets --data "${dataset}" --tau 0.8)

# --- sharded execution ----------------------------------------------------
# --shards is parsed by the CLI (malformed value: usage, exit 2) and
# validated by the Db layer (out-of-range count: typed InvalidArgument,
# exit 1) — never silently clamped to 1.
expect_fail(1 "InvalidArgument.*shards"
  search hamming --data "${dataset}" --tau 8 --shards 0)
expect_fail(1 "InvalidArgument.*shards"
  join hamming --data "${dataset}" --tau 8 --shards -2)
expect_fail(2 "--shards expects an integer"
  search hamming --data "${dataset}" --tau 8 --shards abc)
expect_fail(2 "unknown flag --shards"  # mutation commands reopen in place
  compact hamming --index "${WORK_DIR}/vectors.pgri" --tau 8 --shards 2)

# --- persisted-index errors -----------------------------------------------
# Exactly one of --data / --index must be given (usage, exit 2); a bad or
# mismatched index surfaces the storage layer's typed Status (exit 1).
expect_fail(2 "exactly one of --data or --index"
  search hamming --tau 8)
expect_fail(2 "exactly one of --data or --index"
  search hamming --data "${dataset}" --index "${WORK_DIR}/x.pgri" --tau 8)
expect_fail(2 "unknown flag --index"  # build writes an index, never reads one
  build hamming --index "${WORK_DIR}/x.pgri" --out "${WORK_DIR}/y.pgri"
  --tau 8)

execute_process(
  COMMAND ${PIGEONRING_CLI} build hamming --data "${dataset}"
          --out "${WORK_DIR}/vectors.pgri" --tau 8
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "build failed (rc=${rc})")
endif()

expect_fail(1 "NotFound"
  search hamming --index "${WORK_DIR}/missing.pgri" --tau 8)
expect_fail(1 "InvalidArgument"  # a raw dataset is not an index file
  search hamming --index "${dataset}" --tau 8)
expect_fail(1 "InvalidArgument"  # nor is a directory
  search hamming --index "${WORK_DIR}" --tau 8)
expect_fail(1 "FailedPrecondition.*tau"  # tau is baked into the index
  search hamming --index "${WORK_DIR}/vectors.pgri" --tau 6)
expect_fail(1 "FailedPrecondition"  # wrong domain for this index
  search strings --index "${WORK_DIR}/vectors.pgri" --tau 2)

# --- edit-distance fast path ----------------------------------------------
# --fast-path is a strings-only flag with a closed vocabulary, and
# demanding it (on) for data that cannot take it is a usage error the CLI
# rejects before the Db layer.
execute_process(
  COMMAND ${PIGEONRING_CLI} gen strings --out "${WORK_DIR}/var.ds" --n 40
  RESULT_VARIABLE rc)
execute_process(
  COMMAND ${PIGEONRING_CLI} gen strings --out "${WORK_DIR}/fixed.ds" --n 40
          --fixed 10
  RESULT_VARIABLE rc2)
if(NOT rc EQUAL 0 OR NOT rc2 EQUAL 0)
  message(FATAL_ERROR "gen strings failed (rc=${rc}/${rc2})")
endif()

expect_fail(2 "unknown --fast-path mode 'fast'"
  search strings --data "${WORK_DIR}/fixed.ds" --tau 2 --fast-path fast)
expect_fail(2 "unknown flag --fast-path"  # strings-only flag
  search hamming --data "${dataset}" --tau 8 --fast-path on)
expect_fail(2 "requires a fixed-length dataset"
  search strings --data "${WORK_DIR}/var.ds" --tau 2 --fast-path on)
expect_fail(2 "requires a fixed-length dataset"
  join strings --data "${WORK_DIR}/var.ds" --tau 2 --fast-path on)
expect_fail(2 "requires a fixed-length dataset"
  build strings --data "${WORK_DIR}/var.ds" --out "${WORK_DIR}/var.pgri"
  --tau 2 --fast-path on)

# An index built pivotal-only cannot be served with --fast-path on: the
# flag is baked into the file and the contradiction is a typed error.
execute_process(
  COMMAND ${PIGEONRING_CLI} build strings --data "${WORK_DIR}/fixed.ds"
          --out "${WORK_DIR}/fixed_pivotal.pgri" --tau 2 --fast-path off
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "build strings failed (rc=${rc})")
endif()
expect_fail(1 "FailedPrecondition.*fast_path"
  search strings --index "${WORK_DIR}/fixed_pivotal.pgri" --tau 2
  --fast-path on)

# --- mutation commands ----------------------------------------------------
# insert/remove/compact read --index only (never --data as the serving
# source), parse --ids strictly, and surface the library's typed errors —
# removing a nonexistent id is kNotFound (exit 1), not a silent no-op.
expect_fail(2 "unknown flag --chain"  # mutation commands take no query flags
  compact hamming --index "${WORK_DIR}/vectors.pgri" --tau 8 --chain 2)
expect_fail(2 "--ids expects comma-separated integers"
  remove hamming --index "${WORK_DIR}/vectors.pgri" --tau 8 --ids "3,,7")
expect_fail(2 "missing required flag --data"
  insert hamming --index "${WORK_DIR}/vectors.pgri" --tau 8)
expect_fail(1 "NotFound.*outside"
  remove hamming --index "${WORK_DIR}/vectors.pgri" --tau 8 --ids 99999)
expect_fail(1 "FailedPrecondition.*tau"  # spec must match, like search
  compact hamming --index "${WORK_DIR}/vectors.pgri" --tau 6)
expect_fail(1 "InvalidArgument"  # wrong-domain records cannot be inserted
  insert hamming --index "${WORK_DIR}/vectors.pgri" --tau 8
  --data "${WORK_DIR}/var.ds")

# --- serve ----------------------------------------------------------------
# The network server command shares the CLI's exit-code contract: bad or
# misplaced flags never start a listener (exit 2), and the library's typed
# errors — unreadable dataset, unbindable host — exit 1.
expect_fail(2 "unknown flag --queries"  # serve takes no query-run flags
  serve hamming --data "${dataset}" --tau 8 --queries 5)
expect_fail(2 "unknown flag --stats"
  serve hamming --data "${dataset}" --tau 8 --stats kv)
expect_fail(2 "exactly one of --data or --index"
  serve hamming --tau 8)
expect_fail(2 "--port expects a port"
  serve hamming --data "${dataset}" --tau 8 --port 99999)
expect_fail(2 "--max-inflight expects a count"
  serve hamming --data "${dataset}" --tau 8 --max-inflight -2)
expect_fail(2 "missing required flag --tau"
  serve hamming --data "${dataset}")
expect_fail(1 "NotFound"
  serve hamming --data "${WORK_DIR}/missing.ds" --tau 8)
expect_fail(1 "InvalidArgument"  # numeric IPv4 only; never resolves names
  serve hamming --data "${dataset}" --tau 8 --host not-an-address)

# --- loadgen --------------------------------------------------------------
# expect_loadgen_fail(<expected_rc> <stderr_fragment> <args...>)
function(expect_loadgen_fail expected_rc fragment)
  execute_process(
    COMMAND ${PIGEONRING_LOADGEN} ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL expected_rc)
    message(FATAL_ERROR
      "pigeonring_loadgen ${ARGN}: expected rc=${expected_rc}, got "
      "rc=${rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  if(NOT err MATCHES "${fragment}")
    message(FATAL_ERROR
      "pigeonring_loadgen ${ARGN}: stderr does not match '${fragment}'\n"
      "stderr:\n${err}")
  endif()
  message(STATUS "ok (rc=${rc}): pigeonring_loadgen ${ARGN}")
endfunction()

expect_loadgen_fail(2 "usage")
expect_loadgen_fail(2 "missing required flag --port" --connections 2)
expect_loadgen_fail(2 "unknown flag --frobnicate" --port 9 --frobnicate 1)
expect_loadgen_fail(2 "--port expects a port in" --port 0)
expect_loadgen_fail(2 "--requests expects an integer"
  --port 9999 --requests 1e3)
expect_loadgen_fail(2 "counts >= 1" --port 9999 --connections 0)
# Nothing listens on port 1: a refused connection is the library's typed
# kUnavailable, exit 1 — not a crash or a hang.
expect_loadgen_fail(1 "Unavailable" --port 1 --requests 1)

message(STATUS "all CLI error paths return their documented exit codes")
