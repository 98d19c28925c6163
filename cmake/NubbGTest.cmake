# Resolves GoogleTest (system package first, FetchContent fallback) and
# defines `nubb_add_test`, the one-liner every test list uses.

find_package(GTest CONFIG QUIET)
if(NOT GTest_FOUND)
  message(STATUS "System GoogleTest not found — fetching v1.14.0")
  include(FetchContent)
  FetchContent_Declare(
    googletest
    URL https://github.com/google/googletest/archive/refs/tags/v1.14.0.tar.gz
    DOWNLOAD_EXTRACT_TIMESTAMP TRUE)
  set(INSTALL_GTEST OFF CACHE BOOL "" FORCE)
  set(BUILD_GMOCK OFF CACHE BOOL "" FORCE)
  FetchContent_MakeAvailable(googletest)
  if(NOT TARGET GTest::gtest_main)
    add_library(GTest::gtest ALIAS gtest)
    add_library(GTest::gtest_main ALIAS gtest_main)
  endif()
endif()

include(GoogleTest)

# nubb_add_test(<name> <source...> [LABEL <label>])
#
# Builds one test executable against the nubb library and registers every
# TEST case with CTest via gtest_discover_tests. LABEL (conventionally the
# suite directory name) enables `ctest -L util` style slicing.
# NO_PRETTY_VALUES names a value-parameterized case by gtest's own suffix
# (its name generator's, else its index), never by the parameter's bytes,
# which may hold heap pointers or padding and differ between builds.
function(nubb_add_test name)
  cmake_parse_arguments(ARG "" "LABEL" "" ${ARGN})
  add_executable(${name} ${ARG_UNPARSED_ARGUMENTS})
  target_link_libraries(${name} PRIVATE nubb nubb_options GTest::gtest GTest::gtest_main)
  gtest_discover_tests(${name}
    NO_PRETTY_VALUES
    DISCOVERY_TIMEOUT 120
    PROPERTIES TIMEOUT 600 LABELS "${ARG_LABEL}")
endfunction()
