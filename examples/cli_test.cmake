# Runs one command line and checks how it ends:
#
#   cmake -DPROGRAM=<exe> -DARGS="<args>" -DEXPECT_EXIT=<code> \
#         -DEXPECT_OUTPUT=<regex> -P cli_test.cmake
#
# Fails unless PROGRAM exits with EXPECT_EXIT and its stdout and stderr,
# merged, match EXPECT_OUTPUT.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got ${code}:\n${output}")
endif()
if(NOT output MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}':\n${output}")
endif()
