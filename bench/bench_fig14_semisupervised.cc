// Reproduces paper Figure 14 (Section 9.4): REDS as a semi-supervised
// method. Inputs are sampled i.i.d. logit-normal(0, 1) instead of uniform;
// functions whose positive share drops below 5% under this distribution are
// excluded (the paper keeps 30 of 33). The plot shows relative quality
// changes of PBc / RPx vs Pc and BI / RBIcxp vs BIc at N = 400.
#include <cstdio>

#include "exp/bench_flags.h"
#include "exp/experiment.h"
#include "functions/datagen.h"
#include "stats/descriptive.h"
#include "stats/tests.h"
#include "util/table.h"

namespace reds::exp {
namespace {

// Positive share of a function under logit-normal inputs.
double LogitNormalShare(const fun::TestFunction& f, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<size_t>(f.dim()));
  double sum = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    for (auto& v : x) v = rng.LogitNormal(0.0, 1.0);
    sum += f.ProbPositive(x.data());
  }
  return sum / n;
}

}  // namespace

int Main(int argc, char** argv) {
  const BenchFlags flags = ParseBenchFlags(argc, argv);

  // Keep only functions with > 5% positives under the logit-normal p(x).
  std::vector<std::string> functions;
  for (const auto& name : PickFunctions(flags)) {
    auto f = fun::MakeFunction(name);
    if (LogitNormalShare(**f, 7) > 0.05) functions.push_back(name);
  }

  ExperimentConfig config;
  config.functions = functions;
  config.methods = {"Pc", "PBc", "RPx", "BIc", "RBIcxp"};
  config.sizes = {400};
  config.reps = PickReps(flags, 3, 50);
  config.test_size = flags.full ? 20000 : 8000;
  config.design_override = fun::DesignKind::kLogitNormal;
  config.options.l_prim = flags.full ? 100000 : 20000;
  config.options.l_bi = flags.full ? 10000 : 5000;
  config.options.bumping_q = flags.full ? 50 : 20;
  config.options.tune_metamodel = flags.full;
  config.threads = flags.threads;
  config.seed = flags.seed;

  std::printf("Figure 14: semi-supervised setting (logit-normal inputs), "
              "%zu functions kept (share > 5%%), N = 400\n\n",
              functions.size());

  Runner runner(config);
  runner.Run();

  auto quartile_row = [&](const char* label, const std::string& method,
                          const std::string& baseline,
                          double MetricSet::* field, TablePrinter* table) {
    std::vector<double> changes;
    for (const auto& f : functions) {
      const double v = runner.cell(f, method, 400).Mean().*field;
      const double b = runner.cell(f, baseline, 400).Mean().*field;
      if (b != 0.0) changes.push_back(RelativeChangePercent(v, b));
    }
    const auto q = stats::ComputeQuartiles(changes);
    table->AddRow(label, {q.q1, q.median, q.q3}, 1);
  };

  TablePrinter table("relative change vs tuned baseline, % (quartiles)");
  table.SetHeader({"comparison", "q1", "median", "q3"});
  quartile_row("PBc vs Pc: PR AUC", "PBc", "Pc", &MetricSet::pr_auc, &table);
  quartile_row("RPx vs Pc: PR AUC", "RPx", "Pc", &MetricSet::pr_auc, &table);
  quartile_row("RPx vs Pc: precision", "RPx", "Pc", &MetricSet::precision,
               &table);
  quartile_row("RBIcxp vs BIc: WRAcc", "RBIcxp", "BIc", &MetricSet::wracc,
               &table);
  table.Print();

  std::vector<std::vector<double>> blocks;
  for (const auto& f : functions) {
    blocks.push_back({runner.cell(f, "Pc", 400).Mean().pr_auc,
                      runner.cell(f, "RPx", 400).Mean().pr_auc});
  }
  const auto posthoc = stats::FriedmanPostHoc(blocks, 1, 0);
  std::printf("\nRPx vs Pc (PR AUC): z = %.2f, p = %.2g -- REDS keeps its "
              "edge when p(x) is not uniform (Section 9.4).\n",
              posthoc.statistic, posthoc.p_value);
  return 0;
}

}  // namespace reds::exp

int main(int argc, char** argv) { return reds::exp::Main(argc, argv); }
