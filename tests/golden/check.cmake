# Runs one program and diffs what it prints against its golden capture.
#
#   cmake -DPROG=<exe> -DARGS="<args>" -DNAME=<name> -DFILES="<files>"
#         [-DNO_STDOUT=ON] -DGOLDEN=<tests/golden> -DWORK=<scratch dir>
#         -P check.cmake
#
# The program runs in WORK/NAME. Its stdout must equal GOLDEN/NAME.txt
# (unless NO_STDOUT is set), and every file named in FILES that it writes
# there must equal GOLDEN/<file>.
# With -DBLESS=ON the run rewrites those goldens instead; the
# bless_goldens target in tests/CMakeLists.txt does that for every capture.
separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(files UNIX_COMMAND "${FILES}")
set(dir "${WORK}/${NAME}")
file(REMOVE_RECURSE "${dir}")
file(MAKE_DIRECTORY "${dir}")
execute_process(COMMAND "${PROG}" ${args}
                WORKING_DIRECTORY "${dir}"
                OUTPUT_FILE "${dir}/${NAME}.txt"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME}: ${PROG} exited with ${rc}")
endif()

set(compared ${files})
if(NOT NO_STDOUT)
  list(PREPEND compared "${NAME}.txt")
endif()
set(differs "")
foreach(f ${compared})
  if(BLESS)
    file(COPY_FILE "${dir}/${f}" "${GOLDEN}/${f}")
    continue()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}/${f}" "${dir}/${f}"
                  RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    list(APPEND differs "${f}")
    find_program(DIFF diff)
    if(DIFF)
      execute_process(COMMAND "${DIFF}" -u "${GOLDEN}/${f}" "${dir}/${f}")
    endif()
  endif()
endforeach()
if(differs)
  message(FATAL_ERROR "${NAME}: output differs from tests/golden/: ${differs}")
endif()
