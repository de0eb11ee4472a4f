# Committed-decision goldens: three seeded controller replays must print the
# per-epoch tables in tests/golden/ byte for byte. The runs cover full-solve
# refreshes and adoptions, the all-AP load re-fold of session-rate changes,
# the k=2 overlay, and a signaling cap that rolls back every epoch. The
# tables are thread-invariant, so any difference is a changed decision.
#
#   cmake -DCLI=<wmcast_cli> -DGOLDEN=<tests/golden> -P replay_golden_test.cmake
set(base replay --aps=200 --users=3000 --epochs=40 --leave=0.02 --join=0.02
    --rate-prob=0.05 --threads=2)

function(check name)
  execute_process(COMMAND ${CLI} ${base} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(JOIN " " cmd wmcast_cli ${base} ${ARGN})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${cmd} failed (${rc}): ${err}")
  endif()
  file(READ ${GOLDEN}/${name} expected)
  if(NOT out STREQUAL expected)
    message(FATAL_ERROR "${cmd}: output differs from ${GOLDEN}/${name}:\n${out}")
  endif()
endfunction()

check(replay_k1.txt)
check(replay_k2.txt --k=2)
check(replay_max_reassoc5.txt --max-reassoc=5)
