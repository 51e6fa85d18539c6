// Build provenance recorded in the committed benchmark snapshots: the
// CMake build type (ACE_BUILD_TYPE, set per target in bench/CMakeLists.txt)
// and the checkout's commit.
#pragma once

#include <cstdio>
#include <string>

#ifndef ACE_BUILD_TYPE
#define ACE_BUILD_TYPE "unknown"
#endif

namespace ace::bench {

/// The checkout's commit ("-dirty" with local changes) when run inside
/// a git work tree, else "unknown".
inline std::string commit_id() {
  std::string id;
  const char* command = "git describe --always --dirty --abbrev=12 2>/dev/null";
  if (FILE* pipe = popen(command, "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) id = buf;
    (void)pclose(pipe);
  }
  while (!id.empty() && (id.back() == '\n' || id.back() == '\r'))
    id.pop_back();
  return id.empty() ? "unknown" : id;
}

}  // namespace ace::bench
