# The benchmark's build hook (perfbench/README.md). run.py configures the
# repository's own, unchanged CMake project with
#   -DCMAKE_BUILD_TYPE=Release -DCMAKE_PROJECT_INCLUDE=<this file>
# so mph-lint and mph-serve are the shipped tools built the shipped way, and
# this file adds the traced runner, linked against the very same libraries.
# CMake includes it right after the root project() call; the library
# targets it names are resolved when the build is generated.
add_executable(mph-perftrace EXCLUDE_FROM_ALL ${CMAKE_CURRENT_LIST_DIR}/perftrace.cpp)
target_compile_features(mph-perftrace PRIVATE cxx_std_20)
target_compile_options(mph-perftrace PRIVATE -Wall -Wextra)
target_link_libraries(mph-perftrace PRIVATE mph_serve mph_analysis)
