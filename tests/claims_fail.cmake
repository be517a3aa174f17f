# Runs smtsim on a spec whose one claim cannot hold and checks that the
# claim gate fails the run: exit code 4, with the claim on stderr.
#
#   cmake -DSMTSIM=<smtsim> -DSPEC=<claims_fail.json> -P claims_fail.cmake
execute_process(COMMAND ${SMTSIM} --quiet --no-json ${SPEC}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 4)
    message(FATAL_ERROR "expected exit code 4, got ${rc}\n${out}${err}")
endif()
string(FIND "${err}"
       "claim FAIL: one thread commits more than 100 instructions"
       at)
if(at EQUAL -1)
    message(FATAL_ERROR "the failing claim is not on stderr:\n${err}")
endif()
message(STATUS "claim gate failed the run as expected:\n${err}")
