# Runs one command and passes only if it exits with EXPECT_EXIT and its
# stderr contains EXPECT_STDERR. A ctest entry that checks a rejected
# flag calls it as
#   cmake -DBIN=<binary> "-DARGS=<space-separated args>" -DEXPECT_EXIT=2
#         "-DEXPECT_STDERR=<text>" -P expect_exit.cmake
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${arg_list}
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exit '${code}', expected ${EXPECT_EXIT}; stderr: ${err}")
endif()
string(FIND "${err}" "${EXPECT_STDERR}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${EXPECT_STDERR}': ${err}")
endif()
