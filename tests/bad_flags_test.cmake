# Malformed and unknown flags: every binary must print one diagnostic line
# naming itself and the offending flag, and exit 1 — never abort on an
# uncaught exception, never read a misspelled boolean as false.

function(expect_rejected message)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${ARGN}: expected exit 1, got ${rc}: ${out} ${err}")
  endif()
  string(FIND "${err}" "${message}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${ARGN}: stderr lacks '${message}': ${err}")
  endif()
endfunction()

expect_rejected("fig9_total_load: unknown flag(s): --bogus"
                ${BENCH}/fig9_total_load --bogus=1)
expect_rejected("table1_rate_distance: unknown flag(s): --threads"
                ${BENCH}/table1_rate_distance --threads=2)
expect_rejected("serve_load: unknown flag(s): --pipeline"
                ${BENCH}/serve_load --pipeline)
expect_rejected("wmcast_cli serve: unknown flag(s): --pipeline"
                ${CLI} serve --pipeline)
expect_rejected("wmcast_cli chaos: --json=chaos.json: not a boolean"
                ${CLI} chaos --json=chaos.json)
