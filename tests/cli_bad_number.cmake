# Runs a CLI with a non-numeric --accesses and requires a clean usage
# failure: exit status 2 and "--accesses: expected a number, got 'abc'" on
# stderr.  strtoull used to turn "abc" into 0 and run anyway.
#
#   cmake -DCLI=<binary> "-DARGS=<leading args, space-separated>" \
#         -P cli_bad_number.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${CLI}" ${args} --accesses abc
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${status}'; stderr:\n${err}")
endif()
string(FIND "${err}" "--accesses: expected a number, got 'abc'" at)
if(at EQUAL -1)
  message(FATAL_ERROR "missing the bad-number message; stderr:\n${err}")
endif()
