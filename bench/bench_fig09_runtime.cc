// Reproduces paper Figure 9: runtimes of PRIM-based (Pc, PBc, RPf, RPx) and
// BI-based (BI, BIc, RBIcxp) methods as functions of the dataset size N.
// Absolute numbers differ from the paper's R implementation; the shape to
// reproduce is (1) REDS's runtime dominated by the L-dependent terms (flat
// in N), (2) everything well under the paper's 800-second ceiling.
#include <cstdio>

#include "exp/bench_flags.h"
#include "exp/experiment.h"
#include "stats/descriptive.h"
#include "util/table.h"

namespace reds::exp {

int Main(int argc, char** argv) {
  const BenchFlags flags = ParseBenchFlags(argc, argv);

  ExperimentConfig config;
  config.functions = flags.functions.empty()
                         ? std::vector<std::string>{"ellipse", "morris",
                                                    "borehole", "sobol"}
                         : flags.functions;
  config.methods = {"Pc", "PBc", "RPf", "RPx", "BI", "BIc", "RBIcxp"};
  config.sizes = {200, 400, 800};
  config.reps = PickReps(flags, 3, 50);
  config.test_size = 2000;  // runtime study; test data barely matters
  config.options.l_prim = flags.full ? 100000 : 20000;
  config.options.l_bi = flags.full ? 10000 : 5000;
  config.options.bumping_q = flags.full ? 50 : 20;
  config.options.tune_metamodel = flags.full;
  config.threads = flags.threads;
  config.seed = flags.seed;

  Runner runner(config);
  runner.Run();

  std::printf("Figure 9: mean runtime per discovery run (seconds), averaged "
              "over %zu functions x %d reps\n\n",
              config.functions.size(), config.reps);
  TablePrinter table("runtime vs N");
  std::vector<std::string> header{"N"};
  header.insert(header.end(), config.methods.begin(), config.methods.end());
  table.SetHeader(header);
  for (int n : config.sizes) {
    std::vector<double> row;
    for (const auto& m : config.methods) {
      row.push_back(
          stats::Mean(runner.FunctionMeans(m, n, &MetricSet::runtime_seconds)));
    }
    table.AddRow(std::to_string(n), row, 3);
  }
  table.Print();
  std::printf("\nREDS methods are dominated by the L-dependent relabel+PRIM "
              "cost, so they grow slowly with N (paper Section 9.1.1).\n");

  if (!flags.out_dir.empty()) {
    CsvWriter csv({"n", "method", "runtime_seconds"});
    for (int n : config.sizes) {
      for (size_t mi = 0; mi < config.methods.size(); ++mi) {
        csv.AddRow({static_cast<double>(n), static_cast<double>(mi),
                    stats::Mean(runner.FunctionMeans(
                        config.methods[mi], n, &MetricSet::runtime_seconds))});
      }
    }
    (void)csv.WriteFile(flags.out_dir + "/fig09.csv");
  }
  return 0;
}

}  // namespace reds::exp

int main(int argc, char** argv) { return reds::exp::Main(argc, argv); }
