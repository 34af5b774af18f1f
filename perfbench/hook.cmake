# Adds the benchmark to the simulator's own CMake project.
#
# run.py configures the checkout's top-level CMakeLists.txt with
# -DCMAKE_PROJECT_INCLUDE=<this file>. The simulator's CMake files
# address headers through CMAKE_SOURCE_DIR, so the simulator has to be
# the top-level project; this hook defers reading the benchmark's
# CMakeLists.txt to the end of the top-level directory, when every
# simulator target exists. The benchmark then compiles with exactly the
# flags the repository builds with and links the targets the CLI links.
include_guard(GLOBAL)
# Deferred arguments expand when the call runs, so keep the path in a
# variable of the top-level scope.
set(AITAX_PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
               CALL include "${AITAX_PERFBENCH_DIR}/CMakeLists.txt")
