# Runs one bench binary and compares its stdout with a golden file.
#
#   cmake -DBIN=<binary> -DGOLDEN=<file> [-DARGS="<args>"] [-DMASK=<regex>]
#         [-DUPDATE=ON] -P check_golden.cmake
#
# ARGS is one space-separated string of command-line arguments.
# MASK is a regex whose matches are replaced by "<masked>" before the
# comparison (for a line that prints wall time). With UPDATE=ON the
# (masked) stdout is written to GOLDEN instead of compared. On a mismatch
# the script prints the first line that differs and fails.

cmake_minimum_required(VERSION 3.16)

if(NOT BIN OR NOT GOLDEN)
  message(FATAL_ERROR "usage: cmake -DBIN=<binary> -DGOLDEN=<file> [-DARGS=...] -P check_golden.cmake")
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${status}")
endif()
if(MASK)
  string(REGEX REPLACE "${MASK}" "<masked>" actual "${actual}")
endif()

if(UPDATE)
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "missing golden ${GOLDEN}")
endif()
file(READ "${GOLDEN}" expected)
if(actual STREQUAL expected)
  return()
endif()

# Walk both texts line by line (string(FIND), not CMake lists, so that
# ';' and '[' in the output need no escaping) to the first difference.
set(line 1)
set(e_line "")
set(a_line "")
set(more TRUE)
while(more)
  string(FIND "${expected}" "\n" e_end)
  string(FIND "${actual}" "\n" a_end)
  if(e_end EQUAL -1 OR a_end EQUAL -1)
    # The last line of either text: what is left of both is the report.
    set(e_line "${expected}")
    set(a_line "${actual}")
    set(more FALSE)
  else()
    string(SUBSTRING "${expected}" 0 ${e_end} e_line)
    string(SUBSTRING "${actual}" 0 ${a_end} a_line)
    if(e_line STREQUAL a_line)
      math(EXPR e_end "${e_end} + 1")
      math(EXPR a_end "${a_end} + 1")
      string(SUBSTRING "${expected}" ${e_end} -1 expected)
      string(SUBSTRING "${actual}" ${a_end} -1 actual)
      math(EXPR line "${line} + 1")
    else()
      set(more FALSE)
    endif()
  endif()
endwhile()
message(FATAL_ERROR "stdout differs from ${GOLDEN} at line ${line}:\n"
                    "  golden: ${e_line}\n"
                    "  actual: ${a_line}")
