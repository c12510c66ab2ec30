# Golden-output check for one pinned scenario, run as a CTest case:
#
#   cmake -DCLI=<run_experiment_cli> -DSCENARIO=<name> -DGOLDEN=<expected.csv>
#         -DOUT=<actual.csv> [-DTABLE=aggregate] -P check_golden.cmake
#
# Runs the scenario exactly as tests/golden/ was recorded (2 seeds, 2 jobs,
# no store, per-seed CSV on stdout) and fails unless the output matches the
# golden file byte for byte.  TABLE=aggregate drops --per-seed, so the
# aggregate table (one row per grid point) is compared instead, as recorded
# in tests/golden/aggregate/.  OUT is kept for inspection after a failure.
foreach(var CLI SCENARIO GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

set(table_flag --per-seed)
if(TABLE STREQUAL "aggregate")
  set(table_flag)
endif()

get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")
execute_process(
  COMMAND "${CLI}" --scenario "${SCENARIO}" --seeds 2 --jobs 2 --no-cache
          --format csv ${table_flag} --quiet
  OUTPUT_FILE "${OUT}"
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "${SCENARIO}: ${CLI} failed (${run_rc})")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR "${SCENARIO}: ${OUT} differs from ${GOLDEN}")
endif()
