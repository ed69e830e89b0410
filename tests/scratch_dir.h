#ifndef BIGCITY_TESTS_SCRATCH_DIR_H_
#define BIGCITY_TESTS_SCRATCH_DIR_H_

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace bigcity::testing_util {

/// A directory of this test process's own under the system temp dir, made
/// by mkdtemp on first use and removed with its contents when the process
/// exits, so concurrent copies of a test binary never write, read or
/// delete each other's files.
inline const std::filesystem::path& ProcessScratchDir(
    const std::string& prefix) {
  struct Dir {
    std::filesystem::path path;
    explicit Dir(const std::string& prefix) {
      std::string pattern =
          (std::filesystem::temp_directory_path() / (prefix + "XXXXXX"))
              .string();
      if (mkdtemp(pattern.data()) == nullptr) {
        ADD_FAILURE() << "mkdtemp failed for " << pattern;
      }
      path = pattern;
    }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Dir dir(prefix);
  return dir.path;
}

}  // namespace bigcity::testing_util

#endif  // BIGCITY_TESTS_SCRATCH_DIR_H_
