# Reproduction gate: run every figure/table/ablation binary at a short,
# fixed length and diff its stdout and its --csv grid against the
# committed goldens in GOLDEN_DIR, byte for byte.
#
#   cmake -DBENCH_DIR=<dir of the binaries> -DGOLDEN_DIR=<goldens>
#         -DBENCHES=fig03_baseline,fig04_depth,... -P check_golden.cmake
#
# With WBSIM_UPDATE_GOLDEN=1 in the environment the goldens are
# rewritten instead (list every re-bless, with its reason, in
# CHANGES.md).

foreach(var BENCH_DIR GOLDEN_DIR BENCHES)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "check_golden.cmake needs -D${var}=...")
    endif()
endforeach()

# The run length the goldens were blessed at; every other knob that
# reaches the output is pinned to its default.
set(ENV{WBSIM_INSTRUCTIONS} 100000)
set(ENV{WBSIM_WARMUP} 50000)
foreach(var WBSIM_SEED WBSIM_OBS WBSIM_CSV WBSIM_CROSSCHECK)
    unset(ENV{${var}})
endforeach()

string(REPLACE "," ";" BENCHES "${BENCHES}")

set(update FALSE)
if(DEFINED ENV{WBSIM_UPDATE_GOLDEN}
   AND NOT "$ENV{WBSIM_UPDATE_GOLDEN}" STREQUAL ""
   AND NOT "$ENV{WBSIM_UPDATE_GOLDEN}" STREQUAL "0")
    set(update TRUE)
endif()

set(failed "")
foreach(bench IN LISTS BENCHES)
    # Two runs: the text report on stdout, and the CSV grid alone
    # (--csv=- replaces the report).
    foreach(mode txt csv)
        set(args "")
        if(mode STREQUAL "csv")
            set(args "--csv=-")
        endif()
        execute_process(COMMAND "${BENCH_DIR}/${bench}" ${args}
                        OUTPUT_VARIABLE actual
                        ERROR_VARIABLE errors
                        RESULT_VARIABLE status)
        if(NOT status EQUAL 0)
            message(SEND_ERROR "${bench} ${args} exited with ${status}:\n${errors}")
            list(APPEND failed "${bench}.${mode}")
            continue()
        endif()
        set(golden "${GOLDEN_DIR}/${bench}.${mode}")
        if(update)
            file(WRITE "${golden}" "${actual}")
            continue()
        endif()
        if(NOT EXISTS "${golden}")
            message(SEND_ERROR "missing golden ${golden} "
                    "(bless with WBSIM_UPDATE_GOLDEN=1)")
            list(APPEND failed "${bench}.${mode}")
            continue()
        endif()
        file(READ "${golden}" expected)
        if(NOT actual STREQUAL expected)
            list(APPEND failed "${bench}.${mode}")
            message(SEND_ERROR "${bench} ${args} drifted from ${golden}")
        endif()
    endforeach()
endforeach()

list(LENGTH BENCHES count)
if(update)
    message(STATUS "blessed ${count} binaries into ${GOLDEN_DIR}")
elseif(failed)
    message(FATAL_ERROR "reproduction gate failed: ${failed}")
else()
    message(STATUS "reproduction gate: ${count} binaries byte-identical")
endif()
