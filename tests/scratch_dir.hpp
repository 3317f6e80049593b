// Scratch directories for tests that write files.
//
// `gtest_discover_tests` runs every test case in a process of its own, and
// `ctest -j` runs those processes side by side, so a name that is unique
// only within one process (a static counter) or fixed (a literal path)
// lets one case delete or overwrite another's files. scratch_dir names each
// directory from the process id, the running test's suite and name, and a
// caller tag, which is unique across concurrent processes and test cases,
// and also across two build trees testing at once.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace gtrix {

/// A fresh, empty directory under the system temp dir, named
/// gtrix_<pid>_<suite>_<test>_<tag>. A second call with the same tag in the
/// same test empties and returns the same directory.
inline std::filesystem::path scratch_dir(const std::string& tag) {
  std::string name = "gtrix_" + std::to_string(::getpid());
  if (const ::testing::TestInfo* test =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += std::string("_") + test->test_suite_name() + "_" + test->name();
  }
  name += "_" + tag;
  // Parameterized names carry '/' ("Grids/SkewBoundSweep.Case/3").
  for (char& ch : name) {
    if (ch == '/') ch = '_';
  }
  const std::filesystem::path dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace gtrix
