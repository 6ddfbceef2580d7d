# Runs one command and checks its exit code (invoked by ctest, see
# tools/CMakeLists.txt; ctest alone can only tell zero from non-zero):
#
#   cmake -DEXIT=N [-DMATCH=REGEX] -P expect_exit.cmake -- COMMAND [ARG...]
#
# With MATCH, the command's stdout or stderr must also match REGEX.

if(NOT DEFINED EXIT)
  message(FATAL_ERROR "expect_exit: missing -DEXIT")
endif()

set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect_exit: no command after --")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "expected exit ${EXIT}, got ${rc}: ${cmd}\n${out}")
endif()
if(DEFINED MATCH AND NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match '${MATCH}': ${cmd}\n${out}")
endif()
