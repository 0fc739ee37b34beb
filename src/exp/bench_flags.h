// Shared command-line handling for the bench binaries. Every bench runs a
// reduced version of its paper experiment by default and scales up to
// paper-sized parameters with --full (or REDS_FULL=1).
#ifndef REDS_EXP_BENCH_FLAGS_H_
#define REDS_EXP_BENCH_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace reds::exp {

struct BenchFlags {
  bool full = false;         // --full / REDS_FULL=1: paper-scale parameters
  int reps = -1;             // --reps k: override repetition count
  int threads = 0;           // --threads t
  uint64_t seed = 42;        // --seed s
  std::vector<std::string> functions;  // --functions a,b,c
  std::string out_dir;       // --out dir: write figure CSVs here
};

/// Parses argv; prints usage and exits on --help or unknown flags.
BenchFlags ParseBenchFlags(int argc, char** argv);

/// Default repetition count: flags.reps if set, else full ? full_default :
/// quick_default.
int PickReps(const BenchFlags& flags, int quick_default, int full_default);

/// The function list for all-function experiments: flags.functions if given;
/// otherwise all 33 in full mode or a diverse 8-function subset in quick
/// mode.
std::vector<std::string> PickFunctions(const BenchFlags& flags);

}  // namespace reds::exp

#endif  // REDS_EXP_BENCH_FLAGS_H_
