# Runs calibre_cli on bad input and requires exit code 2 and a message that
# names the offending flag, token or method.
#
#   cmake -DCLI=<path to calibre_cli> -P check_bad_input.cmake

function(expect_rejected needle)
  string(JOIN " " command ${ARGN})
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code STREQUAL "2")
    message(FATAL_ERROR
      "calibre_cli ${command}: exit ${code}, expected 2\n${out}${err}")
  endif()
  string(FIND "${out}${err}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
      "calibre_cli ${command}: output does not name '${needle}'\n${out}${err}")
  endif()
endfunction()

set(toy --clients=4 --novel=1 --samples=20 --test-samples=10
        --clients-per-round=2 --local-epochs=1 --threads=2)
expect_rejected("--rounds" --rounds=abc ${toy})
expect_rejected("NoSuch" --method=NoSuch --rounds=1 ${toy})
expect_rejected("--round" --round=1 ${toy})
expect_rejected("stray" stray --rounds=1 ${toy})
expect_rejected("foo" --list-methods foo)
expect_rejected("--async" --async 3 --rounds=1 ${toy})
