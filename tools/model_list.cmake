# Guard for the lint_model_* tests: their model list is written out by hand
# in tools/CMakeLists.txt, a second copy of the registry's fixed names.
#
#   cmake -DLINT=<mph-lint> -DEXPECTED=<name,name,...> -P model_list.cmake
#
# Fails unless the fixed names `mph-lint --list-models` prints (every line
# but the "<family>-N (N=a..b)" rows) are EXPECTED, in order.
execute_process(COMMAND "${LINT}" --list-models
                OUTPUT_VARIABLE listing
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "mph-lint --list-models exited ${status}")
endif()
string(REPLACE "\n" ";" lines "${listing}")
set(fixed)
foreach(line IN LISTS lines)
  if(line AND NOT line MATCHES "\\(N=")
    list(APPEND fixed "${line}")
  endif()
endforeach()
string(REPLACE "," ";" expected "${EXPECTED}")
if(NOT fixed STREQUAL expected)
  message(FATAL_ERROR "the lint_model_* tests cover '${expected}' but mph-lint "
                      "--list-models names '${fixed}': update the list in "
                      "tools/CMakeLists.txt")
endif()
