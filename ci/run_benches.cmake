# Runs every benchmark binary and writes machine-readable BENCH_*.json files
# at the repository root. Invoked by the `bench_all` target:
#
#   cmake --build build --target bench_all
#
# Expects:
#   BENCH_BIN_DIR — directory containing the built bench binaries
#   REPO_ROOT     — repository root, where BENCH_*.json files are written

if(NOT DEFINED BENCH_BIN_DIR OR NOT DEFINED REPO_ROOT)
  message(FATAL_ERROR "run_benches.cmake needs -DBENCH_BIN_DIR=... -DREPO_ROOT=...")
endif()

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
  message(WARNING "bench_perf binary not found; BENCH_perf.json not refreshed")
endif()

# --- bench_throughput: emits its own JSON on stdout --------------------------
if(EXISTS ${BENCH_BIN_DIR}/bench_throughput)
  message(STATUS "Running bench_throughput (workload driver, native JSON)")
  execute_process(
    COMMAND ${BENCH_BIN_DIR}/bench_throughput
    RESULT_VARIABLE tp_rc
    OUTPUT_VARIABLE tp_out
    ERROR_VARIABLE tp_err)
  if(NOT tp_rc EQUAL 0)
    message(FATAL_ERROR "bench_throughput failed (rc=${tp_rc}):\n${tp_err}")
  endif()
  file(WRITE ${REPO_ROOT}/BENCH_throughput.json "${tp_out}")
else()
  message(WARNING "bench_throughput binary not found; BENCH_throughput.json not refreshed")
endif()

# --- bench_synthesis: emits its own JSON on stdout ---------------------------
if(EXISTS ${BENCH_BIN_DIR}/bench_synthesis)
  message(STATUS "Running bench_synthesis (KBP synthesizer, native JSON)")
  execute_process(
    COMMAND ${BENCH_BIN_DIR}/bench_synthesis
    RESULT_VARIABLE syn_rc
    OUTPUT_VARIABLE syn_out
    ERROR_VARIABLE syn_err)
  if(NOT syn_rc EQUAL 0)
    message(FATAL_ERROR "bench_synthesis failed (rc=${syn_rc}):\n${syn_err}")
  endif()
  file(WRITE ${REPO_ROOT}/BENCH_synthesis.json "${syn_out}")
else()
  message(WARNING "bench_synthesis binary not found; BENCH_synthesis.json not refreshed")
endif()

# --- bench_go: emits its own JSON on stdout ----------------------------------
if(EXISTS ${BENCH_BIN_DIR}/bench_go)
  message(STATUS "Running bench_go (general-omissions sweeps, native JSON)")
  execute_process(
    COMMAND ${BENCH_BIN_DIR}/bench_go
    RESULT_VARIABLE go_rc
    OUTPUT_VARIABLE go_out
    ERROR_VARIABLE go_err)
  if(NOT go_rc EQUAL 0)
    message(FATAL_ERROR "bench_go failed (rc=${go_rc}):\n${go_err}")
  endif()
  file(WRITE ${REPO_ROOT}/BENCH_go.json "${go_out}")
else()
  message(WARNING "bench_go binary not found; BENCH_go.json not refreshed")
endif()

# --- bench_scale: emits its own JSON on stdout -------------------------------
if(EXISTS ${BENCH_BIN_DIR}/bench_scale)
  message(STATUS "Running bench_scale (orbit-level run reuse, native JSON)")
  execute_process(
    COMMAND ${BENCH_BIN_DIR}/bench_scale
    RESULT_VARIABLE scale_rc
    OUTPUT_VARIABLE scale_out
    ERROR_VARIABLE scale_err)
  if(NOT scale_rc EQUAL 0)
    message(FATAL_ERROR "bench_scale failed (rc=${scale_rc}):\n${scale_err}")
  endif()
  file(WRITE ${REPO_ROOT}/BENCH_scale.json "${scale_out}")
else()
  message(WARNING "bench_scale binary not found; BENCH_scale.json not refreshed")
endif()

# --- bench_adversary: emits its own JSON on stdout ---------------------------
if(EXISTS ${BENCH_BIN_DIR}/bench_adversary)
  message(STATUS "Running bench_adversary (worst-case search + adaptive + fuzz, native JSON)")
  execute_process(
    COMMAND ${BENCH_BIN_DIR}/bench_adversary
    RESULT_VARIABLE adv_rc
    OUTPUT_VARIABLE adv_out
    ERROR_VARIABLE adv_err)
  if(NOT adv_rc EQUAL 0)
    message(FATAL_ERROR "bench_adversary failed (rc=${adv_rc}):\n${adv_err}")
  endif()
  file(WRITE ${REPO_ROOT}/BENCH_adversary.json "${adv_out}")
else()
  message(WARNING "bench_adversary binary not found; BENCH_adversary.json not refreshed")
endif()

# --- bench_recovery: emits its own JSON on stdout ----------------------------
if(EXISTS ${BENCH_BIN_DIR}/bench_recovery)
  message(STATUS "Running bench_recovery (trace replay + snapshots + tamper sweep, native JSON)")
  execute_process(
    COMMAND ${BENCH_BIN_DIR}/bench_recovery
    RESULT_VARIABLE rec_rc
    OUTPUT_VARIABLE rec_out
    ERROR_VARIABLE rec_err)
  if(NOT rec_rc EQUAL 0)
    message(FATAL_ERROR "bench_recovery failed (rc=${rec_rc}):\n${rec_err}")
  endif()
  file(WRITE ${REPO_ROOT}/BENCH_recovery.json "${rec_out}")
else()
  message(WARNING "bench_recovery binary not found; BENCH_recovery.json not refreshed")
endif()

# --- bench_durability: emits its own JSON on stdout --------------------------
if(EXISTS ${BENCH_BIN_DIR}/bench_durability)
  message(STATUS "Running bench_durability (journal + delta checkpoints + crash storms + torn writes, native JSON)")
  execute_process(
    COMMAND ${BENCH_BIN_DIR}/bench_durability
    RESULT_VARIABLE dur_rc
    OUTPUT_VARIABLE dur_out
    ERROR_VARIABLE dur_err)
  if(NOT dur_rc EQUAL 0)
    message(FATAL_ERROR "bench_durability failed (rc=${dur_rc}):\n${dur_err}")
  endif()
  file(WRITE ${REPO_ROOT}/BENCH_durability.json "${dur_out}")
else()
  message(WARNING "bench_durability binary not found; BENCH_durability.json not refreshed")
endif()

# --- bench_zoo: emits its own JSON on stdout ---------------------------------
if(EXISTS ${BENCH_BIN_DIR}/bench_zoo)
  message(STATUS "Running bench_zoo (protocol comparison matrix, native JSON)")
  execute_process(
    COMMAND ${BENCH_BIN_DIR}/bench_zoo
    RESULT_VARIABLE zoo_rc
    OUTPUT_VARIABLE zoo_out
    ERROR_VARIABLE zoo_err)
  if(NOT zoo_rc EQUAL 0)
    message(FATAL_ERROR "bench_zoo failed (rc=${zoo_rc}):\n${zoo_err}")
  endif()
  file(WRITE ${REPO_ROOT}/BENCH_zoo.json "${zoo_out}")
else()
  message(WARNING "bench_zoo binary not found; BENCH_zoo.json not refreshed")
endif()

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
