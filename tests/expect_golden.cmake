# Runs the command after `--` and passes only when it exits zero AND the
# file it writes, ACTUAL, is byte-identical to the checked-in GOLDEN, so a
# change that moves one digit of a report fails:
#   cmake -DGOLDEN=<file> -DACTUAL=<file> -P expect_golden.cmake
#         -- <program> [args...]
# ACTUAL is deleted first, so a stale file from an earlier run never
# passes. The command is rebuilt as a CMake list, so no argument may
# contain ';'.
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
if(NOT command OR NOT DEFINED GOLDEN OR NOT DEFINED ACTUAL)
  message(FATAL_ERROR "usage: cmake -DGOLDEN=<file> -DACTUAL=<file> "
                      "-P expect_golden.cmake -- <program> [args...]")
endif()

file(REMOVE "${ACTUAL}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "expected exit status 0, got ${status}")
endif()
if(NOT EXISTS "${ACTUAL}")
  message(FATAL_ERROR "the command wrote no ${ACTUAL}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  # Name the first differing line so the failure says what moved.
  file(STRINGS "${GOLDEN}" want_lines)
  file(STRINGS "${ACTUAL}" got_lines)
  list(LENGTH want_lines want_count)
  list(LENGTH got_lines got_count)
  set(line 0)
  while(line LESS want_count AND line LESS got_count)
    list(GET want_lines ${line} want)
    list(GET got_lines ${line} got)
    if(NOT want STREQUAL got)
      break()
    endif()
    math(EXPR line "${line} + 1")
  endwhile()
  math(EXPR shown "${line} + 1")
  set(want "<end of file>")
  set(got "<end of file>")
  if(line LESS want_count)
    list(GET want_lines ${line} want)
  endif()
  if(line LESS got_count)
    list(GET got_lines ${line} got)
  endif()
  message(FATAL_ERROR "${ACTUAL} differs from ${GOLDEN} at line ${shown}:\n"
                      "  golden: ${want}\n  actual: ${got}")
endif()
