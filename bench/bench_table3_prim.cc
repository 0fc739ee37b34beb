// Reproduces paper Table 3 (+ Figure 7): quality of PRIM-based methods
// across the Table-1 functions for N in {200, 400, 800} (+ "mor800", the
// 20-input morris function at N = 800).
//
// Rows: average PR AUC / precision / consistency / #restricted / #irrel for
// P, Pc, PB, PBc, RPf, RPx, RPs. Also prints the Section 9.1.1 statistics:
// the post-hoc Friedman p-value of RPx vs Pc and the Spearman correlation
// between input count M and the relative PR AUC improvement of RPx over Pc.
//
// Quick mode (default): 8 functions, 3 reps, N in {200, 400}, L = 20000,
// untuned metamodels. --full: all 33 functions, 50 reps, N in {200, 400,
// 800}, L = 100000, CV-tuned metamodels (paper scale; hours of CPU).
#include <cstdio>

#include "exp/bench_flags.h"
#include "exp/experiment.h"
#include "stats/descriptive.h"
#include "stats/tests.h"
#include "util/table.h"

namespace reds::exp {
namespace {

const std::vector<std::string> kMethods = {"P",   "Pc",  "PB", "PBc",
                                           "RPf", "RPx", "RPs"};

void PrintMetricTable(const Runner& runner, const char* title,
                      double MetricSet::* field) {
  TablePrinter table(title);
  std::vector<std::string> header{"N"};
  header.insert(header.end(), kMethods.begin(), kMethods.end());
  table.SetHeader(header);
  for (int n : runner.config().sizes) {
    std::vector<double> row;
    for (const auto& m : kMethods) {
      row.push_back(stats::Mean(runner.FunctionMeans(m, n, field)));
    }
    table.AddRow(std::to_string(n), row, 2);
  }
  table.Print();
  std::printf("\n");
}

void PrintConsistencyTable(const Runner& runner) {
  TablePrinter table("(c) Average consistency");
  std::vector<std::string> header{"N"};
  header.insert(header.end(), kMethods.begin(), kMethods.end());
  table.SetHeader(header);
  for (int n : runner.config().sizes) {
    std::vector<double> row;
    for (const auto& m : kMethods) {
      row.push_back(stats::Mean(runner.FunctionConsistencies(m, n)));
    }
    table.AddRow(std::to_string(n), row, 2);
  }
  table.Print();
  std::printf("\n");
}

}  // namespace

int Main(int argc, char** argv) {
  const BenchFlags flags = ParseBenchFlags(argc, argv);

  ExperimentConfig config;
  config.functions = PickFunctions(flags);
  config.methods = kMethods;
  config.sizes = flags.full ? std::vector<int>{200, 400, 800}
                            : std::vector<int>{200, 400};
  config.reps = PickReps(flags, 3, 50);
  config.test_size = flags.full ? 20000 : 8000;
  config.options.l_prim = flags.full ? 100000 : 20000;
  config.options.bumping_q = flags.full ? 50 : 20;
  config.options.tune_metamodel = flags.full;
  config.options.budget =
      flags.full ? ml::TuningBudget::kFull : ml::TuningBudget::kQuick;
  config.threads = flags.threads;
  config.seed = flags.seed;

  std::printf("Table 3: PRIM-based methods, %zu functions, %d reps%s\n\n",
              config.functions.size(), config.reps,
              flags.full ? " (paper scale)" : " (quick mode; --full for paper scale)");

  Runner runner(config);
  runner.Run();

  PrintMetricTable(runner, "(a) Average PR AUC", &MetricSet::pr_auc);
  PrintMetricTable(runner, "(b) Average precision", &MetricSet::precision);
  PrintConsistencyTable(runner);
  PrintMetricTable(runner, "(d) Average number of restricted inputs",
                   &MetricSet::restricted);
  PrintMetricTable(runner, "(e) Average number of irrelevantly restricted inputs",
                   &MetricSet::irrel);

  // "mor800": the morris function at N = 800 (always worth printing when
  // morris is in the function set and 800 was run; otherwise run it alone).
  {
    ExperimentConfig morris_config = config;
    morris_config.functions = {"morris"};
    morris_config.sizes = {800};
    Runner morris_runner(morris_config);
    morris_runner.Run();
    TablePrinter table("mor800 (morris, N = 800)");
    std::vector<std::string> header{"metric"};
    header.insert(header.end(), kMethods.begin(), kMethods.end());
    table.SetHeader(header);
    std::vector<double> auc, prec, cons, restr;
    for (const auto& m : kMethods) {
      const CellResult& c = morris_runner.cell("morris", m, 800);
      auc.push_back(c.Mean().pr_auc);
      prec.push_back(c.Mean().precision);
      cons.push_back(c.consistency);
      restr.push_back(c.Mean().restricted);
    }
    table.AddRow("PR AUC", auc, 2);
    table.AddRow("precision", prec, 2);
    table.AddRow("consistency", cons, 2);
    table.AddRow("# restricted", restr, 2);
    table.Print();
    std::printf("\n");
  }

  // Figure 7: relative quality change vs "Pc" at N = 400, quartiles across
  // functions.
  const int n_ref = 400;
  {
    TablePrinter fig7("Figure 7: change vs Pc at N=400, % (quartiles across functions)");
    fig7.SetHeader({"metric / method", "q1", "median", "q3"});
    const struct {
      const char* label;
      double MetricSet::* field;
      bool consistency;
    } metrics[] = {{"PR AUC", &MetricSet::pr_auc, false},
                   {"precision", &MetricSet::precision, false},
                   {"consistency", nullptr, true},
                   {"# restricted", &MetricSet::restricted, false}};
    for (const auto& metric : metrics) {
      for (const auto& m : kMethods) {
        if (m == "Pc") continue;
        std::vector<double> changes;
        for (const auto& f : config.functions) {
          double v, base;
          if (metric.consistency) {
            v = runner.cell(f, m, n_ref).consistency;
            base = runner.cell(f, "Pc", n_ref).consistency;
          } else {
            v = runner.cell(f, m, n_ref).Mean().*metric.field;
            base = runner.cell(f, "Pc", n_ref).Mean().*metric.field;
          }
          if (base != 0.0) changes.push_back(RelativeChangePercent(v, base));
        }
        if (changes.empty()) continue;
        const auto q = stats::ComputeQuartiles(changes);
        fig7.AddRow(std::string(metric.label) + " / " + m,
                    {q.q1, q.median, q.q3}, 1);
      }
    }
    fig7.Print();
    std::printf("\n");
  }

  // Section 9.1.1 statistics at N = 400.
  std::vector<std::vector<double>> blocks;
  for (const auto& f : config.functions) {
    std::vector<double> row;
    for (const auto& m : kMethods) {
      row.push_back(runner.cell(f, m, n_ref).Mean().pr_auc);
    }
    blocks.push_back(std::move(row));
  }
  const auto friedman = stats::FriedmanTest(blocks);
  const auto posthoc = stats::FriedmanPostHoc(blocks, /*RPx=*/5, /*Pc=*/1);
  std::printf("Friedman test over PR AUC at N=400: chi2 = %.2f, p = %.2g\n",
              friedman.statistic, friedman.p_value);
  std::printf("post-hoc RPx vs Pc: z = %.2f, p = %.2g\n", posthoc.statistic,
              posthoc.p_value);

  // Spearman correlation between M and relative PR AUC improvement of RPx
  // over Pc (paper reports 0.74 at N = 400).
  std::vector<double> dims, improvements;
  for (const auto& f : config.functions) {
    auto fn = fun::MakeFunction(f);
    dims.push_back((*fn)->dim());
    const double rpx = runner.cell(f, "RPx", n_ref).Mean().pr_auc;
    const double pc = runner.cell(f, "Pc", n_ref).Mean().pr_auc;
    improvements.push_back(RelativeChangePercent(rpx, pc));
  }
  std::printf("Spearman corr(M, rel. PR AUC improvement RPx vs Pc) = %.2f\n",
              stats::SpearmanCorrelation(dims, improvements));

  if (!flags.out_dir.empty()) {
    CsvWriter csv({"n", "method", "pr_auc", "precision", "consistency",
                   "restricted", "irrel"});
    for (int n : config.sizes) {
      for (size_t mi = 0; mi < kMethods.size(); ++mi) {
        csv.AddRow({static_cast<double>(n), static_cast<double>(mi),
                    stats::Mean(runner.FunctionMeans(kMethods[mi], n,
                                                     &MetricSet::pr_auc)),
                    stats::Mean(runner.FunctionMeans(kMethods[mi], n,
                                                     &MetricSet::precision)),
                    stats::Mean(runner.FunctionConsistencies(kMethods[mi], n)),
                    stats::Mean(runner.FunctionMeans(kMethods[mi], n,
                                                     &MetricSet::restricted)),
                    stats::Mean(runner.FunctionMeans(kMethods[mi], n,
                                                     &MetricSet::irrel))});
      }
    }
    (void)csv.WriteFile(flags.out_dir + "/table3.csv");
  }
  return 0;
}

}  // namespace reds::exp

int main(int argc, char** argv) { return reds::exp::Main(argc, argv); }
