# Runs one audited partition scenario end to end and checks the exact
# contract (invoked by ctest, see tools/CMakeLists.txt):
#   EXPECT=violation  bbench must exit 3 (safety violated: the Fig 10
#                     double-spend window) and bbreport audit must confirm
#                     a double-digit forked-block share. The violation
#                     must also leave a flight-recorder dump at
#                     ${OUT}.blackbox.json that bbreport blackbox
#                     validates, and bbench --replay of that dump must
#                     reproduce the same violation with a byte-identical
#                     dump and audit report;
#   EXPECT=clean      bbench must exit 0 and bbreport audit must confirm
#                     zero forks plus a post-heal recovery gap;
#   EXPECT=figure     bbench figure FIGURE must leave the black box DUMP
#                     of an audit violation, and bbench --replay of it must
#                     find the same violation and re-create DUMP byte for
#                     byte: a figure row and bbench build the same run.
#
# Required -D vars: BBENCH, OUT, EXPECT, and FIGURE and DUMP (figure) or
#                   BBREPORT, PLATFORM, DURATION and PARTITION (the rest).

set(required BBREPORT PLATFORM DURATION PARTITION)
if(EXPECT STREQUAL "figure")
  set(required FIGURE DUMP)
endif()
foreach(v BBENCH OUT EXPECT ${required})
  if(NOT DEFINED ${v})
    message(FATAL_ERROR "run_audit_scenario: missing -D${v}")
  endif()
endforeach()

# Runs COMMAND... and fails the scenario unless it exits `want`.
function(expect_exit want what)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL want)
    message(FATAL_ERROR "${what}: expected exit ${want}, got ${rc}")
  endif()
endfunction()

if(EXPECT STREQUAL "violation")
  expect_exit(3 "bbench (safety violated)"
              ${BBENCH} --platform=${PLATFORM} --workload=ycsb --servers=4
              --clients=4 --rate=30 --duration=${DURATION} --warmup=5
              --partition=${PARTITION} --audit=${OUT})
  expect_exit(0 "bbreport audit"
              ${BBREPORT} audit --expect-violation --min-forked-pct=10 ${OUT})
  set(DUMP ${OUT}.blackbox.json)
  if(NOT EXISTS ${DUMP})
    message(FATAL_ERROR "audit violation did not write ${DUMP}")
  endif()
  expect_exit(0 "bbreport blackbox" ${BBREPORT} blackbox ${DUMP})
  # The replay re-audits and re-dumps under other paths, so the two runs'
  # files can be compared.
  expect_exit(3 "replay (same violation)"
              ${BBENCH} --replay=${DUMP} --audit=${OUT}.replay
              --blackbox=${DUMP}.replay)
  expect_exit(0 "replayed dump differs from ${DUMP}"
              ${CMAKE_COMMAND} -E compare_files ${DUMP} ${DUMP}.replay)
  expect_exit(0 "replayed audit differs from ${OUT}"
              ${CMAKE_COMMAND} -E compare_files ${OUT} ${OUT}.replay)
elseif(EXPECT STREQUAL "clean")
  expect_exit(0 "bbench (ledger safe)"
              ${BBENCH} --platform=${PLATFORM} --workload=ycsb --servers=4
              --clients=4 --rate=30 --duration=${DURATION} --warmup=5
              --partition=${PARTITION} --audit=${OUT})
  expect_exit(0 "bbreport audit"
              ${BBREPORT} audit --fail-on-violation --max-forked-pct=0
              --require-recovery ${OUT})
elseif(EXPECT STREQUAL "figure")
  expect_exit(0 "figure" ${BBENCH} figure ${FIGURE} --jobs=4)
  expect_exit(3 "replay (same violation)"
              ${BBENCH} --replay=${DUMP} --audit=${OUT})
  expect_exit(0 "replayed dump differs from ${DUMP}"
              ${CMAKE_COMMAND} -E compare_files ${DUMP} ${OUT}.blackbox.json)
else()
  message(FATAL_ERROR "unknown EXPECT '${EXPECT}'")
endif()
