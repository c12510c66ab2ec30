# The result store's CLI paths, run as the CTest case Store.CliRoundTrip:
#
#   cmake -DCLI=<run_experiment_cli> -DWORK_DIR=<scratch dir> -P check_store_cli.cmake
#
# On `--scenario smoke --seeds 2`: a warm pass over a cold store executes
# nothing and prints the cold per-seed CSV; two --shard stores joined by
# `merge` serve the same CSV; `store ls` lists smoke's 4 entries and counts
# an appended garbage line as corrupt; `store gc` drops that line, and a
# warm pass after it still executes nothing and prints the same CSV.
# Cold `faults-smoke --seeds 2` passes at --jobs 1 and twice at --jobs 4
# write byte-identical store files, and a --jobs above exp::kMaxJobs is
# refused before anything runs.  The "executed" line names the workers that
# ran: `--jobs 8` over smoke's 2 jobs starts 2, and its warm pass none.
foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_store_cli.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run(<stdout var> <stderr var> <CLI args>...): runs the CLI in WORK_DIR and
# fails unless it exits 0.
function(run out err)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    string(JOIN " " args ${ARGN})
    message(FATAL_ERROR "${args}: exit ${rc}\n${stderr}")
  endif()
  set(${out} "${stdout}" PARENT_SCOPE)
  set(${err} "${stderr}" PARENT_SCOPE)
endfunction()

# expect_match(<what> <regex> <text>)
function(expect_match what regex text)
  if(NOT text MATCHES "${regex}")
    message(FATAL_ERROR "${what}: expected /${regex}/ in\n${text}")
  endif()
endfunction()

# expect_warm(<what> <store dir>): a pass over the store executes no job
# and prints the cold pass's CSV.
function(expect_warm what store)
  run(csv err --scenario smoke --seeds 2 --per-seed --format csv --store ${store})
  expect_match("${what}" "executed 0 jobs \\(4 cached\\)" "${err}")
  if(NOT csv STREQUAL cold)
    message(FATAL_ERROR "${what}: the CSV differs from the cold pass's\n${cold}\n${csv}")
  endif()
endfunction()

run(cold err --scenario smoke --seeds 2 --per-seed --format csv --store st/ --quiet)
expect_warm("warm pass" st/)

run(out err --scenario smoke --seeds 2 --shard 0/2 --store s0/ --quiet)
run(out err --scenario smoke --seeds 2 --shard 1/2 --store s1/ --quiet)
run(out err merge m/ s0/ s1/)
expect_match("merge" "merged 4 new results into m/ \\(4 total\\)" "${err}")
expect_warm("warm pass over the merged shards" m/)

run(ls err store ls st/)
expect_match("store ls" "\nsmoke +4 " "${ls}")
expect_match("store ls" "4 live entries \\(schema v[0-9]+\\)\n" "${err}")

file(APPEND "${WORK_DIR}/st/results.jsonl" "garbage\n")
run(ls err store ls st/)
expect_match("store ls after a garbage line" ", 1 corrupt\n" "${err}")

run(out err store gc st/)
expect_match("store gc" "kept 4 record\\(s\\).*, 1 corrupt line\\(s\\)\n" "${err}")
run(ls err store ls st/)
expect_match("store ls after gc" "4 record line\\(s\\), 4 live entries \\(schema v[0-9]+\\)\n"
             "${err}")
expect_warm("warm pass after gc" st/)

# Records are appended in expansion order at any --jobs.
run(out err --scenario faults-smoke --seeds 2 --jobs 1 --store j1/ --quiet)
run(out err --scenario faults-smoke --seeds 2 --jobs 4 --store j4/ --quiet)
run(out err --scenario faults-smoke --seeds 2 --jobs 4 --store j4-again/ --quiet)
foreach(store j4 j4-again)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files j1/results.jsonl
                          ${store}/results.jsonl
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${store}/results.jsonl (--jobs 4) differs from j1/results.jsonl "
                        "(--jobs 1)")
  endif()
endforeach()

# Workers actually started: at most one per executed job.
run(out err --scenario smoke --seeds 1 --jobs 8 --store w/)
expect_match("--jobs 8, cold" "executed 2 jobs \\(0 cached\\) in [0-9.]+ s \\(2 workers\\)\n"
             "${err}")
run(out err --scenario smoke --seeds 1 --jobs 8 --store w/)
expect_match("--jobs 8, warm" "executed 0 jobs \\(2 cached\\) in [0-9.]+ s \\(0 workers\\)\n"
             "${err}")

# --jobs above exp::kMaxJobs = 1024: a usage error, before any job runs or
# the store directory is made.
execute_process(COMMAND "${CLI}" --scenario smoke --seeds 2 --jobs 1025 --store big/
                WORKING_DIRECTORY "${WORK_DIR}"
                OUTPUT_QUIET
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 2 OR err MATCHES "executed" OR EXISTS "${WORK_DIR}/big")
  message(FATAL_ERROR "--jobs 1025: expected exit 2 before anything runs, got exit ${rc}\n${err}")
endif()
expect_match("--jobs 1025" "at most 1024 workers" "${err}")
