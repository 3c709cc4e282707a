# Asserts that a CLI invocation is refused: exit code 2 and a stderr
# message matching -DEXPECT. A strict frontend names the bad input
# instead of running a default config that looks like an answer.
#
# Invoked from examples/CMakeLists.txt; -DCLI names the binary, -DARGS
# its arguments joined with '|'.
string(REPLACE "|" ";" args "${ARGS}")
string(REPLACE "|" " " shown "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "`${shown}` exited ${rc}, expected 2\n${out}${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "`${shown}` stderr lacks \"${EXPECT}\":\n${err}")
endif()
