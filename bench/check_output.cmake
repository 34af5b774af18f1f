# Byte-compare a figure harness's stdout against its recorded output.
#
#   cmake -DBIN=<harness> -DEXPECTED=<bench/expected/NAME.txt>
#         -DACTUAL=<scratch file> -P check_output.cmake
#
# The harness runs at --jobs 1 and --jobs 4; both runs must print
# exactly the recorded bytes (sweep results come back in submission
# order, so the worker count never changes a table). On a mismatch the
# offending stdout is left in ACTUAL for diffing. Re-record with
# scripts/update_bench_expected.sh.
cmake_policy(SET CMP0054 NEW)
file(READ "${EXPECTED}" expected)
foreach(jobs 1 4)
    execute_process(COMMAND "${BIN}" --jobs ${jobs}
                    OUTPUT_VARIABLE actual
                    RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "${BIN} --jobs ${jobs} exited with ${status}")
    endif()
    if(NOT "${actual}" STREQUAL "${expected}")
        file(WRITE "${ACTUAL}" "${actual}")
        message(FATAL_ERROR
                "${BIN} --jobs ${jobs}: stdout differs from ${EXPECTED}; "
                "see: diff ${EXPECTED} ${ACTUAL}")
    endif()
endforeach()
