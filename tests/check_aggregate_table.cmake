# The CLI's scenario listing and aggregate table, run as the CTest case
# Cli.ListingAndAggregateColumns:
#
#   cmake -DCLI=<run_experiment_cli> -P check_aggregate_table.cmake
#
# `--list` prints each scenario's paper claim from the registry.  The
# aggregate CSV (one row per grid point) carries exactly the pinned columns,
# and on smoke, faults-smoke and lifetime-smoke every cell except protocol
# and variant is a plain number: a `nan` or any other word in a numeric
# column would turn that column into a gnuplot series key.  --plot-x and
# --plot-y shape only a gnuplot script: with any other format the CLI
# refuses them before a job runs.
if(NOT DEFINED CLI)
  message(FATAL_ERROR "check_aggregate_table.cmake: -DCLI=... is required")
endif()

execute_process(COMMAND "${CLI}" --list OUTPUT_VARIABLE listing RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--list: exit ${rc}")
endif()
if(NOT listing MATCHES "\nfig06 [^\n]*SPMS saves 26-43%; gap widens with the field")
  message(FATAL_ERROR "--list: fig06's row lacks its paper claim\n${listing}")
endif()

foreach(flags "--format;csv;--plot-y;bogus" "--plot-x;seeds")
  execute_process(COMMAND "${CLI}" --scenario smoke --seeds 1 ${flags} --quiet
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT out STREQUAL "" OR NOT err MATCHES "only --format gnuplot")
    message(FATAL_ERROR "${flags}: exit ${rc}, not a refusal\n${out}${err}")
  endif()
endforeach()

set(columns
    protocol nodes radius_m variant seeds delivery mean_delay_ms delay_sd p95_delay_ms
    uj_per_pkt_proto energy_sd uj_per_pkt_total routing_uj frames epochs failures
    downtime_ms outage_dlv recovery_ms dead first_death_ms t10pct_ms half_life_ms
    res_mean_uj res_sd_uj res_gini given_up)
string(JOIN "," header ${columns})
list(LENGTH columns column_count)
math(EXPR last "${column_count} - 1")

foreach(scenario smoke faults-smoke lifetime-smoke)
  execute_process(COMMAND "${CLI}" --scenario ${scenario} --format csv --quiet
                  OUTPUT_VARIABLE csv
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${scenario}: exit ${rc}")
  endif()
  string(REGEX REPLACE "\n$" "" csv "${csv}")
  string(REPLACE "\n" ";" lines "${csv}")
  list(POP_FRONT lines first)
  if(NOT first STREQUAL header)
    message(FATAL_ERROR "${scenario}: aggregate header\n${first}\nis not\n${header}")
  endif()
  if(NOT lines)
    message(FATAL_ERROR "${scenario}: no aggregate rows")
  endif()
  foreach(line IN LISTS lines)
    string(REPLACE "," ";" cells "${line}")
    list(LENGTH cells cell_count)
    if(NOT cell_count EQUAL column_count)
      message(FATAL_ERROR "${scenario}: ${cell_count} cells, not ${column_count}: ${line}")
    endif()
    foreach(i RANGE ${last})
      list(GET columns ${i} column)
      list(GET cells ${i} cell)
      if(column STREQUAL "protocol" OR column STREQUAL "variant")
        continue()
      endif()
      if(NOT cell MATCHES "^-?[0-9]+(\\.[0-9]+)?$")
        message(FATAL_ERROR "${scenario}: ${column} is '${cell}', not a number: ${line}")
      endif()
    endforeach()
  endforeach()
endforeach()
