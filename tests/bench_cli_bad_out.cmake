# Runs a chrono bench with --out inside a directory that does not exist and
# requires a clean failure: exit status 1 (a signal reports as text, not 1)
# and "<bench>: cannot write <path>: <reason>" on stderr.
#
#   cmake -DBENCH=<bench binary> -DNAME=<bench name> -DOUT=<path> \
#         -P bench_cli_bad_out.cmake
get_filename_component(missing_dir "${OUT}" DIRECTORY)
file(REMOVE_RECURSE "${missing_dir}")
execute_process(
  COMMAND "${BENCH}" --only serial --accesses 10 --reps 1 --out "${OUT}"
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${status}'; stderr:\n${err}")
endif()
string(FIND "${err}" "${NAME}: cannot write ${OUT}: " at)
if(at EQUAL -1)
  message(FATAL_ERROR "missing the cannot-write message; stderr:\n${err}")
endif()
