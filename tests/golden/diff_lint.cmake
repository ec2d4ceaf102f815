# Golden differential check for mph-lint output.
#
#   cmake -DLINT=<mph-lint> -DGOLDEN=<file> -DEXIT=<code> -P diff_lint.cmake -- ARGS...
#
# Runs `mph-lint ARGS...`, then fails unless the exit status is EXIT and
# stdout is byte-identical to GOLDEN. The golden files are recorded outputs
# of `mph-lint --quiet --json`, which carry no timings, so they pin every
# verdict, diagnostic and statistic a change to the engines could move.
set(args)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND args "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()

execute_process(COMMAND "${LINT}" ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
file(READ "${GOLDEN}" expected)
if(NOT "${status}" STREQUAL "${EXIT}")
  message(FATAL_ERROR "mph-lint exited ${status}, expected ${EXIT}")
endif()
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "mph-lint output differs from ${GOLDEN}\n"
                      "--- expected\n${expected}\n--- actual\n${actual}")
endif()
