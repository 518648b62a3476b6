# Drives `schedule_tool serve --storage computed` through admits and
# endpoint updates, and checks that each moved link is re-powered by the
# sqrt rule for its new length. A stale power shows as a different color:
# on this workload the first five moved links land on colors 1..5 with
# fresh powers, and on 2..6 with their old ones.
#
#   cmake -DTOOL=<schedule_tool> -DWORK_DIR=<scratch dir> -P serve_update_repowers.cmake
file(MAKE_DIRECTORY "${WORK_DIR}")
set(instance "${WORK_DIR}/n64.inst")
execute_process(COMMAND "${TOOL}" gen "${instance}" 64 1
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "schedule_tool gen failed: ${rc}")
endif()

set(commands "")
foreach(link RANGE 63)
  string(APPEND commands "admit ${link}\n")
endforeach()
foreach(link RANGE 4)
  math(EXPR u "2 * ${link}")
  math(EXPR v "127 - 2 * ${link}")
  string(APPEND commands "update ${link} ${u} ${v}\n")
endforeach()
string(APPEND commands "quit\n")
set(command_file "${WORK_DIR}/commands.txt")
file(WRITE "${command_file}" "${commands}")

execute_process(COMMAND "${TOOL}" serve "${instance}" --storage computed
                INPUT_FILE "${command_file}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve exited with ${rc}:\n${out}${err}")
endif()
foreach(link RANGE 4)
  math(EXPR color "${link} + 1")
  if(NOT out MATCHES "ok update link=${link} shard=0 color=${color} ")
    message(FATAL_ERROR "link ${link} was not re-powered (expected color ${color}):\n${out}")
  endif()
endforeach()
if(NOT out MATCHES "validated=yes")
  message(FATAL_ERROR "final state failed validation:\n${out}")
endif()
