# Runs the quickstart example and checks that it exits 0 and prints
# its headline metrics.
#
#   cmake -DQUICKSTART=<quickstart> -P example_quickstart.cmake
execute_process(COMMAND ${QUICKSTART}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "expected exit code 0, got ${rc}\n${out}${err}")
endif()
string(FIND "${out}" "Commit throughput" at)
if(at EQUAL -1)
    message(FATAL_ERROR "no \"Commit throughput\" line:\n${out}${err}")
endif()
message(STATUS "${out}")
