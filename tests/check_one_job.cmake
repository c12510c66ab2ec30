# One-job selections against their rows in the pinned goldens, run as the
# CTest case Cli.OneJobMatchesGoldenRow:
#
#   cmake -DCLI=<run_experiment_cli> -DGOLDEN_DIR=<tests/golden> -P check_one_job.cmake
#
# A scenario narrowed to one job with --variant and --set must print the
# golden file's CSV header and exactly that job's per-seed row: the job is
# the same config as in the full sweep, so its result is the same bytes.
foreach(var CLI GOLDEN_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_one_job.cmake: -D${var}=... is required")
  endif()
endforeach()

# check_one_job(<golden> <row prefix> <selection args>...)
function(check_one_job golden prefix)
  string(JOIN " " selection ${ARGN})
  execute_process(
    COMMAND "${CLI}" ${ARGN} --per-seed --format csv --no-cache --quiet
    OUTPUT_VARIABLE actual
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${selection}: ${CLI} failed (${rc})")
  endif()

  file(STRINGS "${GOLDEN_DIR}/${golden}.csv" lines)
  list(GET lines 0 header)
  set(row "")
  foreach(line IN LISTS lines)
    string(FIND "${line}" "${prefix}" at)
    if(at EQUAL 0)
      if(NOT row STREQUAL "")
        message(FATAL_ERROR "${golden}.csv has more than one row starting ${prefix}")
      endif()
      set(row "${line}")
    endif()
  endforeach()
  if(row STREQUAL "")
    message(FATAL_ERROR "${golden}.csv has no row starting ${prefix}")
  endif()

  set(expected "${header}\n${row}\n")
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "${selection}:\nexpected\n${expected}got\n${actual}")
  endif()
endfunction()

check_one_job(smoke "SPIN,16,12.0,-,2005,"
              --scenario smoke --set protocol=SPIN --set seed=2005)
check_one_job(faults-smoke "SPMS,16,12.0,link,2005,"
              --scenario faults-smoke --variant link --set protocol=SPMS --set seed=2005)
