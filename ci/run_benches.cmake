# Runs every benchmark binary and writes machine-readable BENCH_*.json files.
# The `bench_all` target refreshes the committed baselines at the repository
# root:
#
#   cmake --build build --target bench_all
#
# CI writes fresh reports to their own directory instead, then gates them
# against the committed baselines:
#
#   cmake -DBENCH_BIN_DIR=$PWD/build -DREPO_ROOT=$PWD/build/bench-fresh \
#       -P ci/run_benches.cmake
#   python3 ci/check_bench.py --baseline-dir . --fresh-dir build/bench-fresh
#
# Expects:
#   BENCH_BIN_DIR — directory containing the built bench binaries
#   REPO_ROOT     — directory the BENCH_*.json files are written to

if(NOT DEFINED BENCH_BIN_DIR OR NOT DEFINED REPO_ROOT)
  message(FATAL_ERROR "run_benches.cmake needs -DBENCH_BIN_DIR=... -DREPO_ROOT=...")
endif()
file(MAKE_DIRECTORY ${REPO_ROOT})

# Escape a raw string into a JSON string body (no surrounding quotes).
# Control characters other than tab/newline (e.g. ANSI escapes) are stripped:
# JSON forbids them unescaped, and they carry no information in a report.
string(ASCII 1 2 3 4 5 6 7 8 11 12 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 _EBA_CTRL_CHARS)
function(json_escape input out_var)
  string(REPLACE "\\" "\\\\" escaped "${input}")
  string(REPLACE "\"" "\\\"" escaped "${escaped}")
  string(REPLACE "\r" "" escaped "${escaped}")
  string(REPLACE "\t" "\\t" escaped "${escaped}")
  string(REGEX REPLACE "[${_EBA_CTRL_CHARS}]" "" escaped "${escaped}")
  string(REPLACE "\n" "\\n" escaped "${escaped}")
  set(${out_var} "${escaped}" PARENT_SCOPE)
endfunction()

# --- bench_perf: google-benchmark, native JSON reporter --------------------
if(EXISTS ${BENCH_BIN_DIR}/bench_perf)
  message(STATUS "Running bench_perf (google-benchmark, JSON reporter)")
  execute_process(
    COMMAND ${BENCH_BIN_DIR}/bench_perf
      --benchmark_out=${REPO_ROOT}/BENCH_perf.json
      --benchmark_out_format=json
      --benchmark_min_time=0.05
    RESULT_VARIABLE perf_rc
    OUTPUT_VARIABLE perf_out
    ERROR_VARIABLE perf_err)
  if(NOT perf_rc EQUAL 0)
    message(FATAL_ERROR "bench_perf failed (rc=${perf_rc}):\n${perf_out}\n${perf_err}")
  endif()
else()
  message(WARNING "bench_perf binary not found; BENCH_perf.json not written")
endif()

# --- native-JSON benches: each self-checks, emits its own JSON on stdout ---
# A bench whose self-check fails stops here, before any report is written.
set(json_benches
  bench_throughput
  bench_synthesis
  bench_go
  bench_scale
  bench_adversary
  bench_recovery
  bench_durability
  bench_zoo)

foreach(bench ${json_benches})
  string(REGEX REPLACE "^bench_" "" short "${bench}")
  if(NOT EXISTS ${BENCH_BIN_DIR}/${bench})
    message(WARNING "${bench} binary not found; BENCH_${short}.json not written")
    continue()
  endif()
  message(STATUS "Running ${bench} (native JSON)")
  execute_process(
    COMMAND ${BENCH_BIN_DIR}/${bench}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} failed (rc=${rc}):\n${err}")
  endif()
  file(WRITE ${REPO_ROOT}/BENCH_${short}.json "${out}")
endforeach()

# --- report benches: capture stdout into {name, exit_code, seconds, report} -
set(report_benches
  bench_ablation
  bench_domination
  bench_example71
  bench_failure_sweep
  bench_prop81_bits
  bench_prop82_rounds
  bench_termination)

foreach(bench ${report_benches})
  if(NOT EXISTS ${BENCH_BIN_DIR}/${bench})
    message(WARNING "${bench} binary not found; skipping")
    continue()
  endif()
  message(STATUS "Running ${bench}")
  string(TIMESTAMP start_s "%s")
  execute_process(
    COMMAND ${BENCH_BIN_DIR}/${bench}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(TIMESTAMP end_s "%s")
  math(EXPR elapsed "${end_s} - ${start_s}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} failed (rc=${rc}):\n${out}\n${err}")
  endif()
  json_escape("${out}" out_json)
  string(REGEX REPLACE "^bench_" "" short "${bench}")
  file(WRITE ${REPO_ROOT}/BENCH_${short}.json
    "{\n"
    "  \"name\": \"${bench}\",\n"
    "  \"exit_code\": ${rc},\n"
    "  \"seconds\": ${elapsed},\n"
    "  \"report\": \"${out_json}\"\n"
    "}\n")
endforeach()

message(STATUS "All benches complete; BENCH_*.json written to ${REPO_ROOT}")
