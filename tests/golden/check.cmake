# Runs one program and diffs what it prints against its golden capture.
#
#   cmake -DPROG=<exe> -DARGS="<args>" -DNAME=<name> -DFILES="<files>"
#         [-DNO_STDOUT=ON] [-DEXPECT=<name>] [-DFILTER=<regex>]
#         -DGOLDEN=<tests/golden> -DWORK=<scratch dir> -P check.cmake
#
# The program runs in WORK/NAME. Its stdout must equal GOLDEN/NAME.txt
# (unless NO_STDOUT is set), and every file named in FILES that it writes
# there must equal GOLDEN/<file>. EXPECT names another capture to compare
# stdout against, GOLDEN/EXPECT.txt: a run whose flags must not move that
# capture. FILTER drops every stdout line that matches it before the
# comparison, for lines that are not reproducible.
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
if(FILTER)
  file(READ "${dir}/${NAME}.txt" out)
  string(REGEX REPLACE "[^\n]*${FILTER}[^\n]*\n" "" out "${out}")
  file(WRITE "${dir}/${NAME}.txt" "${out}")
endif()

set(compared ${files})
if(NOT NO_STDOUT)
  list(PREPEND compared "${NAME}.txt")
endif()
set(differs "")
foreach(f ${compared})
  set(golden "${f}")
  if(EXPECT AND f STREQUAL "${NAME}.txt")
    set(golden "${EXPECT}.txt")
  endif()
  if(BLESS)
    file(COPY_FILE "${dir}/${f}" "${GOLDEN}/${golden}")
    continue()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}/${golden}" "${dir}/${f}"
                  RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    list(APPEND differs "${golden}")
    find_program(DIFF diff)
    if(DIFF)
      execute_process(COMMAND "${DIFF}" -u "${GOLDEN}/${golden}" "${dir}/${f}")
    endif()
  endif()
endforeach()
if(differs)
  message(FATAL_ERROR "${NAME}: output differs from tests/golden/: ${differs}")
endif()
