# Runs an example with a benchmark name no profile has and requires a clean
# usage failure: exit status 2 (a signal reports as text, not 2) and
# "<example>: unknown benchmark: <name>" on stderr.
#
#   cmake -DEXAMPLE=<example binary> -DNAME=<example name> \
#         -P example_unknown_benchmark.cmake
set(bench "no-such-bench")
execute_process(
  COMMAND "${EXAMPLE}" "${bench}" 10
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${status}'; stderr:\n${err}")
endif()
string(FIND "${err}" "${NAME}: unknown benchmark: ${bench}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "missing the unknown-benchmark message; stderr:\n${err}")
endif()
