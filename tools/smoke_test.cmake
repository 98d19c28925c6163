# CTest script: smoke-test the nubb_run CLI.
#
# Invoked as:
#   cmake -DNUBB_RUN=<path> -DWORK_DIR=<dir> -P smoke_test.cmake
#
# Checks: exit codes, table output shape, JSON output shape, that a bad
# flag or a malformed --caps item fails with a non-zero exit code (the
# latter naming the item), that a sharded run merged via
# `merge` reproduces the unsharded JSON results bit-for-bit under both
# streams, and that a run without --stream is a stream-v2 run.

if(NOT NUBB_RUN)
  message(FATAL_ERROR "NUBB_RUN not set")
endif()

set(json_file "${WORK_DIR}/smoke_out.json")
file(REMOVE "${json_file}")

# --- happy path: tiny two-class run with JSON output ------------------------
execute_process(
  COMMAND "${NUBB_RUN}" --caps 20x1,20x10 --d 2 --reps 50 --seed 7 --stream v1
          --json "${json_file}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nubb_run exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()
foreach(needle "mean max load" "median / q95 / q99" "elapsed")
  string(FIND "${out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "nubb_run stdout missing '${needle}':\n${out}")
  endif()
endforeach()

if(NOT EXISTS "${json_file}")
  message(FATAL_ERROR "nubb_run did not write ${json_file}")
endif()
file(READ "${json_file}" json)
foreach(key "\"n\"" "\"total_capacity\"" "\"max_load\"" "\"mean\"" "\"q99\"" "\"elapsed_seconds\"")
  string(FIND "${json}" "${key}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "JSON output missing key ${key}:\n${json}")
  endif()
endforeach()
string(FIND "${json}" "\"total_capacity\":220" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "JSON total_capacity should be 220 for --caps 20x1,20x10:\n${json}")
endif()

# --- shard + merge reproduces the unsharded run bit-identically --------------
set(shard0 "${WORK_DIR}/smoke_shard0.json")
set(shard1 "${WORK_DIR}/smoke_shard1.json")
set(merged_json "${WORK_DIR}/smoke_merged.json")
file(REMOVE "${shard0}" "${shard1}" "${merged_json}")

foreach(shard 0 1)
  execute_process(
    COMMAND "${NUBB_RUN}" --caps 20x1,20x10 --d 2 --reps 50 --seed 7 --stream v1
            --shard "${shard}/2" --out "${WORK_DIR}/smoke_shard${shard}.json"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nubb_run --shard ${shard}/2 exited with ${rc}\nstderr:\n${err}")
  endif()
endforeach()

file(READ "${shard0}" shard0_json)
string(FIND "${shard0_json}" "nubb.shard.v2" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "shard state file missing format marker:\n${shard0_json}")
endif()

execute_process(
  COMMAND "${NUBB_RUN}" merge "${shard0}" "${shard1}" --json "${merged_json}"
  OUTPUT_VARIABLE merge_out
  ERROR_VARIABLE merge_err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nubb_run merge exited with ${rc}\nstderr:\n${merge_err}")
endif()

# The merged max_load block must equal the unsharded run's to the last
# character (both runs share seed 7 and caps 20x1,20x10 above); only
# elapsed_seconds may differ between the two files.
file(READ "${json_file}" single_json)
file(READ "${merged_json}" merged_json_text)
string(REGEX MATCH "\"max_load\":{[^}]*}" single_max "${single_json}")
string(REGEX MATCH "\"max_load\":{[^}]*}" merged_max "${merged_json_text}")
if(single_max STREQUAL "")
  message(FATAL_ERROR "could not extract max_load from unsharded JSON:\n${single_json}")
endif()
if(NOT single_max STREQUAL merged_max)
  message(FATAL_ERROR "shard-merge result differs from the unsharded run:\n"
                      "unsharded: ${single_max}\nmerged:    ${merged_max}")
endif()

# --- the same shard + merge guarantee holds under --stream v2 ---------------
set(v2_json "${WORK_DIR}/smoke_v2.json")
set(v2_shard0 "${WORK_DIR}/smoke_v2_shard0.json")
set(v2_shard1 "${WORK_DIR}/smoke_v2_shard1.json")
set(v2_merged "${WORK_DIR}/smoke_v2_merged.json")
file(REMOVE "${v2_json}" "${v2_shard0}" "${v2_shard1}" "${v2_merged}")

execute_process(
  COMMAND "${NUBB_RUN}" --caps 20x1,20x10 --d 2 --reps 50 --seed 7 --stream v2
          --json "${v2_json}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nubb_run --stream v2 exited with ${rc}\nstderr:\n${err}")
endif()

foreach(shard 0 1)
  execute_process(
    COMMAND "${NUBB_RUN}" --caps 20x1,20x10 --d 2 --reps 50 --seed 7 --stream v2
            --shard "${shard}/2" --out "${WORK_DIR}/smoke_v2_shard${shard}.json"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nubb_run --stream v2 --shard ${shard}/2 exited with ${rc}\nstderr:\n${err}")
  endif()
endforeach()

execute_process(
  COMMAND "${NUBB_RUN}" merge "${v2_shard0}" "${v2_shard1}" --json "${v2_merged}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nubb_run merge of v2 shards exited with ${rc}\nstderr:\n${err}")
endif()

file(READ "${v2_json}" v2_single_json)
file(READ "${v2_merged}" v2_merged_json)
string(REGEX MATCH "\"max_load\":{[^}]*}" v2_single_max "${v2_single_json}")
string(REGEX MATCH "\"max_load\":{[^}]*}" v2_merged_max "${v2_merged_json}")
if(v2_single_max STREQUAL "")
  message(FATAL_ERROR "could not extract max_load from v2 unsharded JSON:\n${v2_single_json}")
endif()
if(NOT v2_single_max STREQUAL v2_merged_max)
  message(FATAL_ERROR "v2 shard-merge result differs from the unsharded v2 run:\n"
                      "unsharded: ${v2_single_max}\nmerged:    ${v2_merged_max}")
endif()
# ... and the two streams really are different streams: same seed, same
# config, different fixed-seed outcome.
if(single_max STREQUAL v2_single_max)
  message(FATAL_ERROR "--stream v2 produced the v1 fixed-seed result; the flag is not wired:\n${v2_single_max}")
endif()

# A run without --stream is a stream-v2 run: v2 is the default of every tool.
set(default_json "${WORK_DIR}/smoke_default_stream.json")
file(REMOVE "${default_json}")
execute_process(
  COMMAND "${NUBB_RUN}" --caps 20x1,20x10 --d 2 --reps 50 --seed 7 --json "${default_json}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nubb_run without --stream exited with ${rc}\nstderr:\n${err}")
endif()
file(READ "${default_json}" default_json_text)
string(REGEX MATCH "\"max_load\":{[^}]*}" default_max "${default_json_text}")
if(NOT default_max STREQUAL v2_single_max)
  message(FATAL_ERROR "a run without --stream differs from --stream v2:\n"
                      "default: ${default_max}\nv2:      ${v2_single_max}")
endif()

# Mixing streams in one shard set must be refused.
execute_process(
  COMMAND "${NUBB_RUN}" merge "${shard0}" "${v2_shard1}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "nubb_run merge accepted a v1 shard and a v2 shard together")
endif()

# Merging an incomplete shard set must fail loudly.
execute_process(
  COMMAND "${NUBB_RUN}" merge "${shard0}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "nubb_run merge with a missing shard should fail but exited 0")
endif()

# --- every registered experiment runs (names discovered via list) -----------
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
foreach(name IN LISTS experiment_names)
  execute_process(
    COMMAND "${NUBB_RUN}" --caps 8x1,8x4 --reps 8 --seed 3 --experiment "${name}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nubb_run --experiment ${name} exited with ${rc}\nstderr:\n${err}")
  endif()
  string(FIND "${out}" "elapsed" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "nubb_run --experiment ${name} produced no report:\n${out}")
  endif()
endforeach()
execute_process(
  COMMAND "${NUBB_RUN}" --caps 8x1,8x4 --reps 8 --experiment no-such-experiment
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "nubb_run --experiment no-such-experiment should fail but exited 0")
endif()

# --- batched shard + merge reproduces the unsharded batched run --------------
set(batched_json "${WORK_DIR}/smoke_batched.json")
set(batched_shard0 "${WORK_DIR}/smoke_batched_shard0.json")
set(batched_shard1 "${WORK_DIR}/smoke_batched_shard1.json")
set(batched_merged "${WORK_DIR}/smoke_batched_merged.json")
file(REMOVE "${batched_json}" "${batched_shard0}" "${batched_shard1}" "${batched_merged}")

execute_process(
  COMMAND "${NUBB_RUN}" --caps 20x1,20x10 --d 2 --batch 4 --reps 50 --seed 7
          --json "${batched_json}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nubb_run --batch 4 exited with ${rc}\nstderr:\n${err}")
endif()

foreach(shard 0 1)
  execute_process(
    COMMAND "${NUBB_RUN}" --caps 20x1,20x10 --d 2 --batch 4 --reps 50 --seed 7
            --shard "${shard}/2" --out "${WORK_DIR}/smoke_batched_shard${shard}.json"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nubb_run --batch 4 --shard ${shard}/2 exited with ${rc}\nstderr:\n${err}")
  endif()
endforeach()

execute_process(
  COMMAND "${NUBB_RUN}" merge "${batched_shard0}" "${batched_shard1}"
          --json "${batched_merged}"
  OUTPUT_VARIABLE merge_out
  ERROR_VARIABLE merge_err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nubb_run merge (batched) exited with ${rc}\nstderr:\n${merge_err}")
endif()

file(READ "${batched_json}" batched_single_json)
file(READ "${batched_merged}" batched_merged_json)
string(REGEX MATCH "\"max_load\":{[^}]*}" batched_single_max "${batched_single_json}")
string(REGEX MATCH "\"max_load\":{[^}]*}" batched_merged_max "${batched_merged_json}")
if(batched_single_max STREQUAL "")
  message(FATAL_ERROR "could not extract max_load from unsharded batched JSON:\n${batched_single_json}")
endif()
if(NOT batched_single_max STREQUAL batched_merged_max)
  message(FATAL_ERROR "batched shard-merge result differs from the unsharded run:\n"
                      "unsharded: ${batched_single_max}\nmerged:    ${batched_merged_max}")
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

# --- subcommand surface: run | check-state (merge and list ran above) -------
execute_process(
  COMMAND "${NUBB_RUN}" run --caps 50x1,50x4 --reps 200 --seed 7
  OUTPUT_VARIABLE sub_run_out
  ERROR_VARIABLE sub_run_err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nubb_run run exited with ${rc}\nstderr:\n${sub_run_err}")
endif()

execute_process(
  COMMAND "${NUBB_RUN}" check-state "${shard0}" --caps 20x1,20x10 --d 2 --reps 50
          --seed 7 --stream v1 --shard 0/2
  OUTPUT_VARIABLE sub_check_out
  ERROR_VARIABLE sub_check_err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nubb_run check-state exited with ${rc}\nstderr:\n${sub_check_err}")
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
