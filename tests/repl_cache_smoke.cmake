# End-to-end check of the REPL's ad-hoc result cache (examples/isis_repl.cpp
# holds the only query::ResultCache outside the server). Pipes
# repl_cache_smoke.txt into isis_repl, then checks the `cache:` line of each
# of its five `explain` probes (the script's comments say why each is a hit
# or a miss) and that `stats` counted the one stale entry a lookup dropped.
# Usage:
#
#   cmake -DREPL=<path to isis_repl> -DSCRIPT=<path to repl_cache_smoke.txt>
#         -P repl_cache_smoke.cmake

execute_process(
  COMMAND "${REPL}"
  INPUT_FILE "${SCRIPT}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "isis_repl exited with ${rc}\n${err}")
endif()

string(REGEX MATCHALL "cache: [a-z]+" got "${out}")
set(want "cache: hit;cache: hit;cache: miss;cache: hit;cache: miss")
if(NOT got STREQUAL want)
  message(FATAL_ERROR "explain reported\n  ${got}\nexpected\n  ${want}")
endif()

string(REGEX MATCH "result cache: [^\n]*" stats "${out}")
if(NOT stats MATCHES " 1 invalidation\\(s\\)")
  message(FATAL_ERROR "expected one invalidation, stats said: ${stats}")
endif()
