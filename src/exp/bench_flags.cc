#include "exp/bench_flags.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "functions/registry.h"

namespace reds::exp {

namespace {

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  size_t begin = 0;
  while (begin <= s.size()) {
    size_t end = s.find(',', begin);
    if (end == std::string::npos) end = s.size();
    if (end > begin) out.push_back(s.substr(begin, end - begin));
    begin = end + 1;
  }
  return out;
}

[[noreturn]] void PrintUsageAndExit(const char* prog, int code) {
  std::fprintf(stderr,
               "usage: %s [--full] [--reps K] [--threads T] [--seed S]\n"
               "          [--functions f1,f2,...] [--out DIR]\n"
               "  --full       paper-scale parameters (also REDS_FULL=1)\n"
               "  --reps K     repetitions per cell\n"
               "  --threads T  worker threads (default: all cores)\n"
               "  --functions  comma-separated Table-1 function names\n"
               "  --out DIR    also write figure series as CSV files\n",
               prog);
  std::exit(code);
}

}  // namespace

BenchFlags ParseBenchFlags(int argc, char** argv) {
  BenchFlags flags;
  const char* env_full = std::getenv("REDS_FULL");
  if (env_full != nullptr && std::strcmp(env_full, "0") != 0 &&
      std::strcmp(env_full, "") != 0) {
    flags.full = true;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        PrintUsageAndExit(argv[0], 2);
      }
      return argv[++i];
    };
    if (arg == "--full") {
      flags.full = true;
    } else if (arg == "--reps") {
      flags.reps = std::atoi(next("--reps").c_str());
    } else if (arg == "--threads") {
      flags.threads = std::atoi(next("--threads").c_str());
    } else if (arg == "--seed") {
      flags.seed = std::strtoull(next("--seed").c_str(), nullptr, 10);
    } else if (arg == "--functions") {
      flags.functions = SplitCommas(next("--functions"));
    } else if (arg == "--out") {
      flags.out_dir = next("--out");
    } else if (arg == "--help" || arg == "-h") {
      PrintUsageAndExit(argv[0], 0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      PrintUsageAndExit(argv[0], 2);
    }
  }
  return flags;
}

int PickReps(const BenchFlags& flags, int quick_default, int full_default) {
  if (flags.reps > 0) return flags.reps;
  return flags.full ? full_default : quick_default;
}

std::vector<std::string> PickFunctions(const BenchFlags& flags) {
  if (!flags.functions.empty()) return flags.functions;
  if (flags.full) return fun::AllFunctionNames();
  // A diverse quick subset: stochastic, physical, high-dimensional, grid
  // simulator, and the paper's own function.
  return {"dalal3",  "borehole", "ellipse",     "ishigami",
          "morris",  "sobol",    "moon10hdc1",  "dsgc"};
}

}  // namespace reds::exp
