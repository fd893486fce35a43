# Runs a figure/table bench and requires exit status 0 and a "=== " table
# header on stdout.  The test sets the budget through the environment
# (ALLARM_BENCH_ACCESSES, ALLARM_JOBS).
#
#   cmake -DBENCH=<bench binary> -P bench_smoke.cmake
execute_process(
  COMMAND "${BENCH}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "expected exit status 0, got '${status}'; stderr:\n${err}")
endif()
string(FIND "${out}" "=== " at)
if(at EQUAL -1)
  message(FATAL_ERROR "no '=== ' table header on stdout:\n${out}")
endif()
