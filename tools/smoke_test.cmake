# CTest script: smoke-test the nubb_run CLI.
#
# Invoked as:
#   cmake -DNUBB_RUN=<path> -DWORK_DIR=<dir> -P smoke_test.cmake
#
# Checks: exit codes, table output shape, JSON output shape, that a bad
# flag or a malformed --caps item fails with a non-zero exit code (the
# latter naming the item), that a library precondition failure prints its
# own reason and nothing else, that every experiment `list` names (plus
# max-load under --stream v1 and with --batch 4) shards end to end —
# `--shard 0/2` and `1/2`, `check-state`, `merge` — into JSON equal to the
# unsharded run's, and that a run without --stream is a stream-v2 run.

if(NOT NUBB_RUN)
  message(FATAL_ERROR "NUBB_RUN not set")
endif()

# Every shard leg below runs this configuration.
set(base_args --caps 20x1,20x10 --d 2 --reps 50 --seed 7)

# --- every registered experiment, discovered via list -----------------------
execute_process(
  COMMAND "${NUBB_RUN}" list
  OUTPUT_VARIABLE list_out
  ERROR_VARIABLE list_err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nubb_run list exited with ${rc}\nstderr:\n${list_err}")
endif()
if(NOT list_out MATCHES "max-load")
  message(FATAL_ERROR "nubb_run list does not name max-load:\n${list_out}")
endif()
string(REGEX MATCHALL "\n  [a-z0-9-]+" experiment_lines "${list_out}")
set(experiment_names "")
foreach(line IN LISTS experiment_lines)
  string(STRIP "${line}" name)
  list(APPEND experiment_names "${name}")
endforeach()
list(LENGTH experiment_names experiment_count)
if(experiment_count LESS 4)
  message(FATAL_ERROR "nubb_run list names ${experiment_count} experiments, expected >= 4:\n${list_out}")
endif()
execute_process(
  COMMAND "${NUBB_RUN}" --caps 8x1,8x4 --reps 8 --experiment no-such-experiment
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "nubb_run --experiment no-such-experiment should fail but exited 0")
endif()

# --- shard legs: run, shard 0/2 and 1/2, check-state, merge ------------------
# One leg per listed experiment (default stream, v2) plus two max-load
# variants. Each leg's merged JSON must equal its unsharded JSON to the last
# character; only elapsed_seconds may differ between the two files.
foreach(name IN LISTS experiment_names)
  set(leg_args_${name} --experiment ${name})
endforeach()
set(leg_args_max-load-v1 --experiment max-load --stream v1)
set(leg_args_max-load-batch4 --experiment max-load --batch 4)
set(legs ${experiment_names} max-load-v1 max-load-batch4)

foreach(leg IN LISTS legs)
  set(args ${base_args} ${leg_args_${leg}})
  set(full_json "${WORK_DIR}/smoke_${leg}.json")
  set(merged_json "${WORK_DIR}/smoke_${leg}_merged.json")
  file(REMOVE "${full_json}" "${merged_json}")

  execute_process(
    COMMAND "${NUBB_RUN}" ${args} --json "${full_json}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nubb_run (${leg}) exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  string(FIND "${out}" "elapsed" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "nubb_run (${leg}) produced no report:\n${out}")
  endif()
  set(stdout_${leg} "${out}")

  set(states "")
  foreach(shard 0 1)
    set(state "${WORK_DIR}/smoke_${leg}_shard${shard}.json")
    file(REMOVE "${state}")
    execute_process(
      COMMAND "${NUBB_RUN}" ${args} --shard "${shard}/2" --out "${state}"
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "nubb_run (${leg}) --shard ${shard}/2 exited with ${rc}\nstderr:\n${err}")
    endif()
    file(READ "${state}" state_text)
    string(FIND "${state_text}" "nubb.shard.v2" pos)
    if(pos EQUAL -1)
      message(FATAL_ERROR "shard state file (${leg}) missing format marker:\n${state_text}")
    endif()
    execute_process(
      COMMAND "${NUBB_RUN}" check-state "${state}" ${args} --shard "${shard}/2"
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "nubb_run check-state (${leg}, shard ${shard}/2) exited with ${rc}\nstderr:\n${err}")
    endif()
    list(APPEND states "${state}")
  endforeach()

  execute_process(
    COMMAND "${NUBB_RUN}" merge ${states} --json "${merged_json}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nubb_run merge (${leg}) exited with ${rc}\nstderr:\n${err}")
  endif()

  file(READ "${full_json}" full_text)
  file(READ "${merged_json}" merged_text)
  string(REGEX REPLACE "\"elapsed_seconds\":[^,}]*" "" full_text "${full_text}")
  string(REGEX REPLACE "\"elapsed_seconds\":[^,}]*" "" merged_text "${merged_text}")
  if(NOT full_text STREQUAL merged_text)
    message(FATAL_ERROR "shard-merge result (${leg}) differs from the unsharded run:\n"
                        "unsharded: ${full_text}\nmerged:    ${merged_text}")
  endif()
  set(json_${leg} "${full_text}")
endforeach()

# --- the stream-v1 leg's report has the expected shape ----------------------
foreach(needle "mean max load" "median / q95 / q99" "elapsed")
  string(FIND "${stdout_max-load-v1}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "nubb_run stdout missing '${needle}':\n${stdout_max-load-v1}")
  endif()
endforeach()
foreach(key "\"n\"" "\"total_capacity\"" "\"max_load\"" "\"mean\"" "\"q99\"")
  string(FIND "${json_max-load-v1}" "${key}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "JSON output missing key ${key}:\n${json_max-load-v1}")
  endif()
endforeach()
file(READ "${WORK_DIR}/smoke_max-load-v1.json" v1_json)
string(FIND "${v1_json}" "\"elapsed_seconds\"" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "JSON output missing key \"elapsed_seconds\":\n${v1_json}")
endif()
string(FIND "${v1_json}" "\"total_capacity\":220" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "JSON total_capacity should be 220 for --caps 20x1,20x10:\n${v1_json}")
endif()

# --- a run without --stream is a stream-v2 run ------------------------------
# The max-load leg ran without --stream: it must equal an explicit v2 run
# and differ from the v1 leg (same seed, same config, different stream).
set(v2_json "${WORK_DIR}/smoke_v2.json")
file(REMOVE "${v2_json}")
execute_process(
  COMMAND "${NUBB_RUN}" ${base_args} --stream v2 --json "${v2_json}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nubb_run --stream v2 exited with ${rc}\nstderr:\n${err}")
endif()
file(READ "${v2_json}" v2_text)
string(REGEX REPLACE "\"elapsed_seconds\":[^,}]*" "" v2_text "${v2_text}")
if(NOT v2_text STREQUAL json_max-load)
  message(FATAL_ERROR "a run without --stream differs from --stream v2:\n"
                      "default: ${json_max-load}\nv2:      ${v2_text}")
endif()
string(REGEX MATCH "\"max_load\":{[^}]*}" v1_max "${json_max-load-v1}")
string(REGEX MATCH "\"max_load\":{[^}]*}" v2_max "${v2_text}")
if(v1_max STREQUAL "")
  message(FATAL_ERROR "could not extract max_load from the v1 JSON:\n${json_max-load-v1}")
endif()
if(v1_max STREQUAL v2_max)
  message(FATAL_ERROR "--stream v2 produced the v1 fixed-seed result; the flag is not wired:\n${v2_max}")
endif()

# Mixing streams in one shard set must be refused.
execute_process(
  COMMAND "${NUBB_RUN}" merge "${WORK_DIR}/smoke_max-load-v1_shard0.json"
          "${WORK_DIR}/smoke_max-load_shard1.json"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "nubb_run merge accepted a v1 shard and a v2 shard together")
endif()

# Merging an incomplete shard set must fail loudly.
execute_process(
  COMMAND "${NUBB_RUN}" merge "${WORK_DIR}/smoke_max-load-v1_shard0.json"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "nubb_run merge with a missing shard should fail but exited 0")
endif()

# --- --version prints the semver and exits 0 --------------------------------
execute_process(
  COMMAND "${NUBB_RUN}" --version
  OUTPUT_VARIABLE ver_out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nubb_run --version exited with ${rc}")
endif()
if(NOT ver_out MATCHES "nubb_run [0-9]+\\.[0-9]+\\.[0-9]+")
  message(FATAL_ERROR "nubb_run --version output malformed: ${ver_out}")
endif()

# --- --help exits 0 ---------------------------------------------------------
execute_process(
  COMMAND "${NUBB_RUN}" --help
  OUTPUT_VARIABLE help_out
  ERROR_VARIABLE help_err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nubb_run --help exited with ${rc}")
endif()

# --- bad input fails loudly -------------------------------------------------
execute_process(
  COMMAND "${NUBB_RUN}" --caps bogus
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "nubb_run --caps bogus should fail but exited 0")
endif()

# A failed library precondition prints its reason: the whole stderr line is
# fixed, with no source path or line number in it.
execute_process(
  COMMAND "${NUBB_RUN}" --caps 20x1 --experiment gap-trace --batch 4
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "nubb_run gap-trace --batch 4 should fail but exited 0")
endif()
set(expected_err "nubb_run: gap trace requires the sequential process (batch <= 1)\n")
if(NOT err STREQUAL expected_err)
  message(FATAL_ERROR "nubb_run gap-trace --batch 4 printed:\n${err}expected:\n${expected_err}")
endif()

# Each half of a --caps item is an unsigned decimal integer and nothing else:
# a fraction, trailing junk or a sign is refused and the error names the item.
foreach(bad_case "2x1.5,2x3=2x1.5" "2x1,2x10junk=2x10junk" "-3x1=-3x1")
  string(REPLACE "=" ";" bad_case "${bad_case}")
  list(GET bad_case 0 bad_caps)
  list(GET bad_case 1 bad_item)
  execute_process(
    COMMAND "${NUBB_RUN}" --caps "${bad_caps}" --reps 2
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(rc EQUAL 0)
    message(FATAL_ERROR "nubb_run --caps ${bad_caps} should fail but exited 0:\n${out}")
  endif()
  string(FIND "${err}" "bad --caps item" at_msg)
  string(FIND "${err}" "${bad_item}" at_item)
  if(at_msg EQUAL -1 OR at_item EQUAL -1)
    message(FATAL_ERROR "nubb_run --caps ${bad_caps} should name '${bad_item}':\n${err}")
  endif()
endforeach()

# --- subcommand surface: run (merge, check-state and list ran above) --------
execute_process(
  COMMAND "${NUBB_RUN}" run --caps 50x1,50x4 --reps 200 --seed 7
  OUTPUT_VARIABLE sub_run_out
  ERROR_VARIABLE sub_run_err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nubb_run run exited with ${rc}\nstderr:\n${sub_run_err}")
endif()

execute_process(
  COMMAND "${NUBB_RUN}" frobnicate
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "nubb_run frobnicate (unknown subcommand) should fail but exited 0")
endif()

message(STATUS "nubb_run CLI smoke test passed")
