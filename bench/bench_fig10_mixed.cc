// Reproduces paper Figure 10 (Section 9.1.2): mixed continuous/discrete
// inputs. Even-numbered inputs are drawn i.i.d. from {0.1, 0.3, 0.5, 0.7,
// 0.9}; the plot shows relative quality changes of the best REDS variants
// ("RPcxp", "RBIcxp") against the tuned baselines ("Pc", "BIc") at N = 400.
#include <cstdio>

#include "exp/bench_flags.h"
#include "exp/experiment.h"
#include "stats/descriptive.h"
#include "stats/tests.h"
#include "util/table.h"

namespace reds::exp {

int Main(int argc, char** argv) {
  const BenchFlags flags = ParseBenchFlags(argc, argv);

  ExperimentConfig config;
  config.functions = PickFunctions(flags);
  // The paper excludes "dsgc" from the mixed-input study.
  std::erase(config.functions, std::string("dsgc"));
  config.methods = {"Pc", "RPcxp", "BIc", "RBIcxp"};
  config.sizes = {400};
  config.reps = PickReps(flags, 3, 50);
  config.test_size = flags.full ? 20000 : 8000;
  config.design_override = fun::DesignKind::kMixedDiscrete;
  config.options.l_prim = flags.full ? 100000 : 20000;
  config.options.l_bi = flags.full ? 10000 : 5000;
  config.options.tune_metamodel = flags.full;
  config.threads = flags.threads;
  config.seed = flags.seed;

  Runner runner(config);
  runner.Run();

  std::printf("Figure 10: mixed inputs (even inputs in {0.1,...,0.9}), "
              "N = 400, %zu functions\n\n",
              config.functions.size());

  // Relative change per function, quartiles across functions.
  auto quartile_row = [&](const char* label, const std::string& method,
                          const std::string& baseline,
                          double MetricSet::* field, TablePrinter* table) {
    std::vector<double> changes;
    for (const auto& f : config.functions) {
      const double v = runner.cell(f, method, 400).Mean().*field;
      const double b = runner.cell(f, baseline, 400).Mean().*field;
      if (b != 0.0) changes.push_back(RelativeChangePercent(v, b));
    }
    const auto q = stats::ComputeQuartiles(changes);
    table->AddRow(label, {q.q1, q.median, q.q3}, 1);
  };

  TablePrinter table("relative change vs tuned baseline, % (quartiles)");
  table.SetHeader({"comparison", "q1", "median", "q3"});
  quartile_row("RPcxp vs Pc: PR AUC", "RPcxp", "Pc", &MetricSet::pr_auc,
               &table);
  quartile_row("RPcxp vs Pc: precision", "RPcxp", "Pc", &MetricSet::precision,
               &table);
  quartile_row("RBIcxp vs BIc: WRAcc", "RBIcxp", "BIc", &MetricSet::wracc,
               &table);
  table.Print();

  // Significance (paper: p <= 0.017 for all three).
  for (const auto& [m, b, field, name] :
       std::vector<std::tuple<std::string, std::string, double MetricSet::*,
                              const char*>>{
           {"RPcxp", "Pc", &MetricSet::pr_auc, "PR AUC"},
           {"RPcxp", "Pc", &MetricSet::precision, "precision"},
           {"RBIcxp", "BIc", &MetricSet::wracc, "WRAcc"}}) {
    std::vector<std::vector<double>> blocks;
    for (const auto& f : config.functions) {
      blocks.push_back({runner.cell(f, b, 400).Mean().*field,
                        runner.cell(f, m, 400).Mean().*field});
    }
    const auto posthoc = stats::FriedmanPostHoc(blocks, 1, 0);
    std::printf("%s vs %s (%s): z = %.2f, p = %.2g\n", m.c_str(), b.c_str(),
                name, posthoc.statistic, posthoc.p_value);
  }
  return 0;
}

}  // namespace reds::exp

int main(int argc, char** argv) { return reds::exp::Main(argc, argv); }
