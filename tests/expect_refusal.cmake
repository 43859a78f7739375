# Runs the command after `--` and passes only when it exits non-zero AND
# its output matches EXPECT, so a refusal path is checked for both its
# status and its reason:
#   cmake -DEXPECT=<regex> -P expect_refusal.cmake -- <program> [args...]
# The command is rebuilt as a CMake list, so no argument may contain ';'.
set(command)
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
  if(seen_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(seen_separator TRUE)
  endif()
endforeach()
if(NOT command OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "usage: cmake -DEXPECT=<regex> "
                      "-P expect_refusal.cmake -- <program> [args...]")
endif()

execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(status EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit status, got 0")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}'")
endif()
