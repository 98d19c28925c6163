# CTest script: thm1_big_bins' "within Thm1?" column depends on the game's
# ball count (m = C), not on how many replications ran.
#
# Invoked as:
#   cmake -DTHM1=<path to thm1_big_bins> -DWORK_DIR=<dir> -P thm1_within_check.cmake
#
# At n = 10 the small-bin rows (Cs = 9 > 8.09) have m = C = 73 < n^2 = 100,
# so Theorem 1 does not apply there; every other row has m = C >= n^2.

if(NOT THM1)
  message(FATAL_ERROR "THM1 not set")
endif()

foreach(reps 2 100)
  set(csv_dir "${WORK_DIR}/thm1_within_reps${reps}")
  file(REMOVE_RECURSE "${csv_dir}")
  execute_process(
    COMMAND "${THM1}" --n 10 --reps ${reps} --quiet --csv "${csv_dir}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "thm1_big_bins --reps ${reps} exited with ${rc}\nstderr:\n${err}")
  endif()
  file(STRINGS "${csv_dir}/thm1_big_bins.csv" rows)
  list(POP_FRONT rows header)
  if(NOT header MATCHES "^small_bins,Cs,within_thm1,")
    message(FATAL_ERROR "unexpected thm1_big_bins.csv header: ${header}")
  endif()
  set(column "")
  foreach(row IN LISTS rows)
    string(REPLACE "," ";" cells "${row}")
    list(GET cells 2 within)
    list(APPEND column "${within}")
  endforeach()
  message(STATUS "--reps ${reps}: within_thm1 = ${column}")
  set(column_reps${reps} "${column}")
endforeach()

if(NOT column_reps2 STREQUAL column_reps100)
  message(FATAL_ERROR "the \"within Thm1?\" column depends on --reps:\n"
                      "--reps 2:   ${column_reps2}\n--reps 100: ${column_reps100}")
endif()
if(NOT column_reps2 STREQUAL "1;1;1;1;1;0;0")
  message(FATAL_ERROR "expected within_thm1 = 1;1;1;1;1;0;0 at n = 10, got ${column_reps2}")
endif()
