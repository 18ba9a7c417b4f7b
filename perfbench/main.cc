// One repetition of a benchmark workload, printed as one JSON line:
//
//   perfbench_rep --workload NAME --seed N [--trace 0|1] [--checks 0|1]
//
// run.py repeats it and aggregates the repetitions; see README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_rep --workload NAME --seed N [--trace 0|1] "
               "[--checks 0|1]\nworkloads:");
  for (const perfbench::Workload& w : perfbench::Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

uint64_t ParseUint(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') Usage();
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  bool have_seed = false;
  perfbench::RunOptions options;
  for (int i = 1; i < argc; i++) {
    if (i + 1 >= argc) Usage();
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = ParseUint(value);
      have_seed = true;
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.traced = ParseUint(value) != 0;
    } else if (std::strcmp(flag, "--checks") == 0) {
      options.checks = ParseUint(value) != 0;
    } else {
      Usage();
    }
  }
  const perfbench::Workload* w = perfbench::FindWorkload(workload);
  if (w == nullptr || !have_seed) Usage();
  const perfbench::RunReport report =
      perfbench::RunWorkload(*w, seed, options);
  std::printf("%s\n", perfbench::ReportJson(report).c_str());
  return 0;
}
