// Ablation (ours, motivated by paper Sections 6.1-6.2 and 9.1.1): metamodel
// family and label type inside REDS. Compares RPf / RPfp / RPx / RPxp / RPs
// at N = 400 on a function subset -- hard labels (bnd thresholding) vs
// probability labels (the Proposition 1 variance reduction), and random
// forest vs boosted trees vs SVM as the intermediate model.
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
                         ? std::vector<std::string>{"morris", "ellipse",
                                                    "dalal3", "hart6sc"}
                         : flags.functions;
  config.methods = {"P", "RPf", "RPfp", "RPx", "RPxp", "RPs"};
  config.sizes = {400};
  config.reps = PickReps(flags, 3, 50);
  config.test_size = flags.full ? 20000 : 8000;
  config.options.l_prim = flags.full ? 100000 : 20000;
  config.options.tune_metamodel = flags.full;
  config.threads = flags.threads;
  config.seed = flags.seed;

  std::printf("Ablation: metamodel family and label type in REDS, N = 400, "
              "%zu functions, %d reps\n\n",
              config.functions.size(), config.reps);

  Runner runner(config);
  runner.Run();

  TablePrinter table("test quality by REDS variant (mean over functions)");
  table.SetHeader({"method", "PR AUC", "precision", "consistency",
                   "# restricted", "# irrel"});
  for (const auto& m : config.methods) {
    table.AddRow(
        m,
        {stats::Mean(runner.FunctionMeans(m, 400, &MetricSet::pr_auc)),
         stats::Mean(runner.FunctionMeans(m, 400, &MetricSet::precision)),
         stats::Mean(runner.FunctionConsistencies(m, 400)),
         stats::Mean(runner.FunctionMeans(m, 400, &MetricSet::restricted)),
         stats::Mean(runner.FunctionMeans(m, 400, &MetricSet::irrel))},
        2);
  }
  table.Print();

  std::printf("\nPer-function PR AUC:\n");
  TablePrinter per_fn("");
  std::vector<std::string> header{"function"};
  header.insert(header.end(), config.methods.begin(), config.methods.end());
  per_fn.SetHeader(header);
  for (const auto& f : config.functions) {
    std::vector<double> row;
    for (const auto& m : config.methods) {
      row.push_back(runner.cell(f, m, 400).Mean().pr_auc);
    }
    per_fn.AddRow(f, row, 2);
  }
  per_fn.Print();
  std::printf("\nexpected shape: every REDS variant beats plain P; 'p' "
              "variants match or beat their hard-label twins (paper 9.1.1: "
              "'RPxp'/'RPfp' behaved similarly to 'RPx'/'RPf').\n");
  return 0;
}

}  // namespace reds::exp

int main(int argc, char** argv) { return reds::exp::Main(argc, argv); }
