# Drives `schedule_tool serve` with lines that carry one word too many and
# checks that each is rejected by name, with nothing applied: only the two
# well-formed lines may reach the service.
#
#   cmake -DTOOL=<schedule_tool> -DWORK_DIR=<scratch dir> -P serve_rejects_trailing_words.cmake
file(MAKE_DIRECTORY "${WORK_DIR}")
set(instance "${WORK_DIR}/n16.inst")
execute_process(COMMAND "${TOOL}" gen "${instance}" 16 1
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "schedule_tool gen failed: ${rc}")
endif()

set(command_file "${WORK_DIR}/commands.txt")
file(WRITE "${command_file}" "admit 3 junk
admit 3
update 3 1 2 9
release 3 4
drain now
metrics now
quit now
release 3
quit
")

execute_process(COMMAND "${TOOL}" serve "${instance}"
                INPUT_FILE "${command_file}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve exited with ${rc}:\n${out}${err}")
endif()
foreach(expected
    "rejected admit: unexpected argument 'junk'"
    "rejected update: unexpected argument '9'"
    "rejected release: unexpected argument '4'"
    "rejected drain: unexpected argument 'now'"
    "rejected metrics: unexpected argument 'now'"
    "rejected quit: unexpected argument 'now'"
    "ok admit link=3 "
    "ok release link=3 "
    "final: processed=2 rejected=0 active=0 ")
  string(FIND "${out}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "missing '${expected}' in serve output:\n${out}")
  endif()
endforeach()
if(out MATCHES "\"schema\"")
  message(FATAL_ERROR "'metrics now' printed a scrape:\n${out}")
endif()
