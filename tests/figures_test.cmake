# Figure outputs: the fast figure benches must print results/*.txt byte for
# byte (dynamics_churn and fig12_optimality take close to a minute each and
# are left out). Every table is thread-invariant, so the benches run at
# --threads=2; table1_rate_distance takes no flags.
#
#   cmake -DBENCH=<build/bench> -DRESULTS=<results> -P figures_test.cmake
function(check bench file)
  execute_process(COMMAND ${BENCH}/${bench} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} ${ARGN} failed (${rc}): ${err}")
  endif()
  file(READ ${RESULTS}/${file} expected)
  if(NOT out STREQUAL expected)
    message(FATAL_ERROR "${bench} ${ARGN}: output differs from ${RESULTS}/${file}:\n${out}")
  endif()
endfunction()

check(table1_rate_distance table1.txt)
check(fig9_total_load fig9.txt --threads=2)
check(fig10_max_load fig10.txt --threads=2)
check(fig11_satisfied_users fig11.txt --threads=2)
check(sensitivity sensitivity.txt --threads=2)
check(revenue_models revenue.txt --threads=2)
check(reliability_collisions reliability.txt --threads=2)
check(motivation_unicast_impact motivation.txt --threads=2)
check(ablation_mac_model ablation_mac.txt --threads=2)
check(ablation_extensions ablation_ext.txt --threads=2)
