# Telemetry goldens: the modeled serve telemetry (wmcast-serve-telemetry/v1)
# and the replay controller telemetry (wmcast-ctrl-telemetry/v1) must match
# tests/golden/telemetry_*.json byte for byte. The serve runs use the modeled
# service clock, so their dump is a pure function of (scenario, workload,
# config). The replay dumps carry one wall-clock instrument,
# histograms.drain_seconds; it is the last object of the document, so both
# sides are compared up to its key.
#
#   cmake -DCLI=<wmcast_cli> -DGOLDEN=<tests/golden> -DWORK=<dir> \
#         -P telemetry_golden_test.cmake
file(MAKE_DIRECTORY ${WORK})

set(flash serve --aps=60 --users=2000 --area=500 --profile=flash --duration=2
    --rate=800 --modeled --threads=2 --quiet)
set(mixed serve --aps=200 --users=10000 --area=2000 --profile=mixed
    --duration=2 --rate=1000 --modeled --threads=2 --quiet)
set(replay replay --aps=200 --users=3000 --epochs=40 --leave=0.02 --join=0.02
    --rate-prob=0.05 --threads=2)

function(check name)
  set(out ${WORK}/${name})
  execute_process(COMMAND ${CLI} ${ARGN} --telemetry=${out} RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  string(JOIN " " cmd wmcast_cli ${ARGN})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${cmd} failed (${rc}): ${err}")
  endif()
  file(READ ${out} actual)
  file(READ ${GOLDEN}/${name} expected)
  foreach(doc actual expected)
    string(FIND "${${doc}}" "\"drain_seconds\"" at)
    if(at GREATER -1)
      string(SUBSTRING "${${doc}}" 0 ${at} ${doc})
    endif()
  endforeach()
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "${cmd}: telemetry differs from ${GOLDEN}/${name} "
                        "(see ${out})")
  endif()
endfunction()

check(telemetry_serve_flash_k1.json ${flash} --k=1)
check(telemetry_serve_flash_k2.json ${flash} --k=2)
check(telemetry_serve_mixed_k1.json ${mixed} --k=1)
check(telemetry_serve_mixed_k2.json ${mixed} --k=2)
check(telemetry_replay_k1.json ${replay} --k=1)
check(telemetry_replay_k2.json ${replay} --k=2)
