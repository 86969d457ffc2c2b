// Checked result files for the bench binaries. A bench whose JSON, trace
// or metrics file could not be written must fail, not print "wrote".
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace mobivine::bench {

/// Close `out`; if opening, writing or closing it failed, report `path`
/// on stderr and exit with status 1.
inline void CloseOrDie(std::ofstream& out, const std::string& path) {
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", path.c_str());
    std::exit(1);
  }
}

}  // namespace mobivine::bench
