// One scratch directory per test process for the files a test writes.
// ctest runs every test case as its own process, so keying the directory
// on the pid keeps concurrently running cases - from one build tree or
// several - from removing or resuming each other's files. The directory
// is created on first use and removed when the process exits.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace bb::testdir {

// <temp dir>/bb_test_<pid>/<name>.
inline std::string TempPath(const std::string& name) {
  struct Dir {
    std::filesystem::path path = std::filesystem::temp_directory_path() /
                                 ("bb_test_" + std::to_string(::getpid()));
    Dir() {
      std::filesystem::remove_all(path);
      std::filesystem::create_directories(path);
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return (dir.path / name).string();
}

}  // namespace bb::testdir
