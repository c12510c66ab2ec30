# bench_scale at its smallest size, run as the CTest case Bench.ScaleOneK:
#
#   cmake -DBENCH=<bench_scale> -P check_bench_scale.cmake
#
# The bench must exit 0 and print a scale-1k row whose last cell, the
# delivery ratio, reads 100.0%.
if(NOT DEFINED BENCH)
  message(FATAL_ERROR "check_bench_scale.cmake: -DBENCH=... is required")
endif()

execute_process(COMMAND "${BENCH}" 1k OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} 1k failed (${rc}):\n${out}")
endif()
if(NOT out MATCHES "\nscale-1k [^\n]* 100\\.0% *\n")
  message(FATAL_ERROR "${BENCH} 1k did not deliver every reading:\n${out}")
endif()
