# Command-line check of one bench binary, run by ctest through
#   cmake -DBENCH=<binary> -DCHECK=<help|unknown_setting> -P bench_cli_check.cmake
#
# help:            `--help` exits 0 and lists 13 distinct CYCLOID_BENCH_*
#                  settings (bench_common_test pins which).
# unknown_setting: a misspelt setting exits 2, names the variable on stderr,
#                  and leaves no --json file behind.
if(CHECK STREQUAL "help")
  execute_process(COMMAND "${BENCH}" --help
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "--help exited ${code}: ${err}")
  endif()
  string(REGEX MATCHALL "CYCLOID_BENCH_[A-Z_]+" names "${out}")
  list(REMOVE_DUPLICATES names)
  list(LENGTH names count)
  if(NOT count EQUAL 13)
    message(FATAL_ERROR "--help lists ${count} settings, not 13:\n${out}")
  endif()
elseif(CHECK STREQUAL "unknown_setting")
  set(json "${BENCH}.unknown_setting.json")
  file(REMOVE "${json}")
  set(ENV{CYCLOID_BENCH_INTERLEAV} 8)
  execute_process(COMMAND "${BENCH}" --json "${json}"
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "CYCLOID_BENCH_INTERLEAV=8 exited ${code}, not 2")
  endif()
  string(FIND "${err}" "CYCLOID_BENCH_INTERLEAV" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stderr does not name CYCLOID_BENCH_INTERLEAV:\n${err}")
  endif()
  if(EXISTS "${json}")
    message(FATAL_ERROR "the run wrote ${json}")
  endif()
else()
  message(FATAL_ERROR "unknown CHECK '${CHECK}'")
endif()
