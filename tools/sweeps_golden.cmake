# Runs the four seeded sweeps that CI runs and compares their stdout,
# concatenated in order, with a golden file. A behaviour-preserving
# change must print the same lines; a change that means to move them
# re-records the golden file from its own build.
#
#   cmake -DTOREX_VERIFY=<torex_verify> -DGOLDEN=<golden.txt> -DACTUAL=<out.txt>
#         -P sweeps_golden.cmake

foreach(var TOREX_VERIFY GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sweeps_golden.cmake needs -D${var}=...")
  endif()
endforeach()

set(actual "")
foreach(sweep "--chaos=150" "--chaos=150 --kill-rate=75" "--sessions=8" "--storm=8")
  separate_arguments(flags UNIX_COMMAND "${sweep}")
  execute_process(COMMAND "${TOREX_VERIFY}" --max-nodes=4 --seed=7 ${flags}
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "torex_verify --max-nodes=4 --seed=7 ${sweep} exited with ${rc}:\n${out}")
  endif()
  string(APPEND actual "${out}")
endforeach()

file(WRITE "${ACTUAL}" "${actual}")
file(READ "${GOLDEN}" golden)
if(NOT actual STREQUAL golden)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${ACTUAL}")
  else()
    message("expected:\n${golden}\nactual:\n${actual}")
  endif()
  message(FATAL_ERROR "the seeded sweeps' lines moved (actual output in ${ACTUAL})")
endif()
