# Runs every benchmark binary and writes machine-readable BENCH_*.json files.
# The `bench_all` target refreshes the committed baselines at the repository
# root, the trajectory each change's numbers are read against:
#
#   cmake --build build --target bench_all
#
# CI writes fresh reports to their own directory and uploads them; every
# bench fails the run on its own self-checks. The perf gate is ci/ab.py,
# which pairs each gated headline against the parent commit's on the same
# machine; bench_scale, too slow and large to pair, runs only here.
#
#   cmake -DBENCH_BIN_DIR=$PWD/build -DREPO_ROOT=$PWD/build/bench-fresh \
#       -P ci/run_benches.cmake
#
# Expects:
#   BENCH_BIN_DIR — directory containing the built bench binaries
#   REPO_ROOT     — directory the BENCH_*.json files are written to

if(NOT DEFINED BENCH_BIN_DIR OR NOT DEFINED REPO_ROOT)
  message(FATAL_ERROR "run_benches.cmake needs -DBENCH_BIN_DIR=... -DREPO_ROOT=...")
endif()
file(MAKE_DIRECTORY ${REPO_ROOT})

# --- bench_perf: google-benchmark, native JSON reporter --------------------
# 0.3 s per row: at 0.05 s the gated rows swing with run length (on a 4-vCPU
# VM, BM_POptAction/8 read 1646-1755 ns at 0.05 s and 1174-1452 ns at 0.3 s).
if(EXISTS ${BENCH_BIN_DIR}/bench_perf)
  message(STATUS "Running bench_perf (google-benchmark, JSON reporter)")
  execute_process(
    COMMAND ${BENCH_BIN_DIR}/bench_perf
      --benchmark_out=${REPO_ROOT}/BENCH_perf.json
      --benchmark_out_format=json
      --benchmark_min_time=0.3
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
  bench_synthesis
  bench_go
  bench_scale
  bench_adversary
  bench_recovery
  bench_durability
  bench_zoo
  bench_paper)

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

message(STATUS "All benches complete; BENCH_*.json written to ${REPO_ROOT}")
