// perfbench: run one benchmark workload and print its result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-dir <dir>]
//   perfbench --list
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (end-to-end metrics untraced, per-layer metrics traced). Exit
// code 0 only when every output check passed.
#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] "
               "[--trace 0|1] [--spans-dir <dir>]\n"
               "       perfbench --list\n");
  return 2;
}

bool parse_number(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0';
}

bool parse_seed(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      for (const perfbench::Workload& w : perfbench::workloads()) {
        std::string overrides;
        for (const std::string& o : w.overrides) overrides += " " + o;
        std::printf("%-18s %s%s\n", w.name.c_str(), w.scenario.c_str(), overrides.c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    double number = 0.0;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--spans-dir") {
      options.spans_dir = value;
    } else if (arg == "--seed") {
      if (!parse_seed(value, &options.seed)) return usage();
    } else if (!parse_number(value, &number)) {
      return usage();
    } else if (arg == "--seconds" && number > 0) {
      options.seconds = number;
    } else if (arg == "--trace" && (number == 0 || number == 1)) {
      options.trace = number == 1;
    } else {
      return usage();
    }
  }
  const perfbench::Workload* w = perfbench::find_workload(workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (see --list)\n",
                 workload.c_str());
    return 2;
  }
#if defined(__linux__)
  // The engine workload's fake LLM calls each sleep 200 us. Under the
  // kernel's default 50 us timer slack a sleep overshoots by a share of
  // that which moves with host load; 1 ns keeps sleeps close to what was
  // asked. Threads inherit the setting, so it is set before any starts.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  try {
    const perfbench::Outcome outcome = perfbench::run(*w, options);
    std::printf("%s\n", perfbench::result_json(outcome).c_str());
    return outcome.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
