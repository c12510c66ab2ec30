# Schema check of every JSON file the CLI writes, run as the CTest case
# Telemetry.JsonOutputsMatchSchema:
#
#   cmake -DCLI=<run_experiment_cli> -DPYTHON=<python3> -DSOURCE_DIR=<repo root>
#         -DOUT_DIR=<scratch dir> -P check_telemetry_schema.cmake
#
# Runs the one-job fig06 SPMS crash run with every file output and a
# faults-smoke sweep with a rollup, validates the files against
# scripts/telemetry_schema.json, and loads the Perfetto export as one JSON
# document.  OUT_DIR keeps the files for inspection after a failure.
foreach(var CLI PYTHON SOURCE_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_telemetry_schema.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# run(<what> <command>...): runs the command in OUT_DIR, failing the test on
# a nonzero exit.
function(run what)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${OUT_DIR}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what} failed (${rc}):\n${out}${err}")
  endif()
endfunction()

run("fig06 crash run"
    "${CLI}" --scenario fig06 --set node_count=49 --set zone_radius_m=15 --set protocol=SPMS
    --set faults.crash.enabled=true --set activity_horizon_ns=2000000000
    --trace-out trace.jsonl --metrics-out metrics.jsonl --sample-every-ms 5
    --spans-out spans.jsonl --perfetto-out perfetto.json --flight-out flight.jsonl --quiet)
run("faults-smoke sweep"
    "${CLI}" --scenario faults-smoke --seeds 2 --jobs 1 --rollup-out rollup.jsonl --quiet)
run("validate_telemetry.py"
    "${PYTHON}" "${SOURCE_DIR}/scripts/validate_telemetry.py"
    --schema "${SOURCE_DIR}/scripts/telemetry_schema.json"
    --trace trace.jsonl --metrics metrics.jsonl --spans spans.jsonl
    --flight flight.jsonl --rollup rollup.jsonl)
run("perfetto.json load"
    "${PYTHON}" -c
    "import json; assert json.load(open('perfetto.json'))['traceEvents'], 'empty trace'")
