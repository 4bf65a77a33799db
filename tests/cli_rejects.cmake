# ctest driver for a command line that must be refused: running EXE with
# ARGS (a |-separated argument list) must exit with status 2 and print a line
# matching the regex EXPECT on stderr.
#
#   cmake -DEXE=path -DARGS="IS|--threads|4abc" -DEXPECT="--threads expects" \
#         -P cli_rejects.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got '${rc}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
