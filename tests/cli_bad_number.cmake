# Runs a CLI with a malformed number among its arguments and requires a
# clean usage failure: exit status 2 (a signal reports as text, not 2) and
# the expected message on stderr.  strtoull used to turn "abc" into 0 and
# run anyway.
#
#   cmake -DCLI=<binary> "-DARGS=<arguments, space-separated>" \
#         "-DEXPECT=<stderr substring>" -P cli_bad_number.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${CLI}" ${args}
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${status}'; stderr:\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "missing '${EXPECT}'; stderr:\n${err}")
endif()
