// Reproduces paper Figure 11: peeling trajectories and PR AUC for "morris"
// at N = 400. The "RPx" trajectory should dominate "P" and "Pc" (higher
// precision at equal recall), and its PR AUC distribution should beat "Pc"
// with a tiny Wilcoxon-Mann-Whitney p-value (paper: p < 1e-15 at 50 reps).
#include <cstdio>

#include "core/method.h"
#include "core/quality.h"
#include "exp/bench_flags.h"
#include "functions/datagen.h"
#include "functions/registry.h"
#include "stats/descriptive.h"
#include "stats/tests.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace reds::exp {
namespace {

// Test-set PR curve of a trajectory, resampled at fixed recall grid points
// by linear interpolation, so curves average across repetitions.
std::vector<double> ResampleCurve(const std::vector<Box>& trajectory,
                                  const Dataset& test,
                                  const std::vector<double>& recall_grid) {
  std::vector<PrPoint> pts;
  const double total_pos = test.TotalPositive();
  for (const Box& b : trajectory) {
    const BoxStats stats = ComputeBoxStats(test, b);
    pts.push_back({Recall(stats, total_pos), Precision(stats)});
  }
  std::sort(pts.begin(), pts.end(),
            [](const PrPoint& a, const PrPoint& b) { return a.recall < b.recall; });
  std::vector<double> out;
  out.reserve(recall_grid.size());
  for (double r : recall_grid) {
    // Find the bracketing trajectory points.
    double prec = pts.front().precision;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (pts[i].recall >= r) {
        if (i == 0) {
          prec = pts[0].precision;
        } else {
          const double t = (r - pts[i - 1].recall) /
                           std::max(1e-12, pts[i].recall - pts[i - 1].recall);
          prec = pts[i - 1].precision +
                 t * (pts[i].precision - pts[i - 1].precision);
        }
        break;
      }
      prec = pts[i].precision;
    }
    out.push_back(prec);
  }
  return out;
}

}  // namespace

int Main(int argc, char** argv) {
  const BenchFlags flags = ParseBenchFlags(argc, argv);
  const int reps = PickReps(flags, 5, 50);
  const std::vector<std::string> methods{"P", "Pc", "RPx"};

  auto function = fun::MakeFunction("morris").value();
  const Dataset test = fun::MakeScenarioDataset(
      *function, flags.full ? 20000 : 8000, fun::DesignKind::kLatinHypercube,
      DeriveSeed(flags.seed, 1));

  std::vector<double> recall_grid;
  for (double r = 0.1; r <= 1.0001; r += 0.1) recall_grid.push_back(r);

  std::vector<std::vector<std::vector<double>>> curves(
      methods.size(),
      std::vector<std::vector<double>>(static_cast<size_t>(reps)));
  std::vector<std::vector<double>> aucs(methods.size(),
                                        std::vector<double>(reps));

  ThreadPool pool(flags.threads);
  for (int rep = 0; rep < reps; ++rep) {
    pool.Submit([&, rep] {
      const Dataset train = fun::MakeScenarioDataset(
          *function, 400, fun::DesignKind::kLatinHypercube,
          DeriveSeed(flags.seed, 100 + rep));
      for (size_t mi = 0; mi < methods.size(); ++mi) {
        RunOptions options;
        options.l_prim = flags.full ? 100000 : 20000;
        options.tune_metamodel = flags.full;
        options.seed = DeriveSeed(flags.seed, 1000 * (mi + 1) + rep);
        const MethodOutput out =
            RunMethod(*MethodSpec::Parse(methods[mi]), train, options);
        curves[mi][static_cast<size_t>(rep)] =
            ResampleCurve(out.trajectory, test, recall_grid);
        aucs[mi][static_cast<size_t>(rep)] =
            100.0 * PrAucOnData(out.trajectory, test);
      }
    });
  }
  pool.Wait();

  std::printf("Figure 11: peeling trajectories, 'morris', N = 400, %d reps\n\n",
              reps);
  TablePrinter table("mean precision at recall r (test data)");
  table.SetHeader({"recall", "P", "Pc", "RPx"});
  for (size_t g = 0; g < recall_grid.size(); ++g) {
    std::vector<double> row;
    for (size_t mi = 0; mi < methods.size(); ++mi) {
      double sum = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        sum += curves[mi][static_cast<size_t>(rep)][g];
      }
      row.push_back(sum / reps);
    }
    table.AddRow(FormatDouble(recall_grid[g], 1), row, 3);
  }
  table.Print();

  std::printf("\n");
  TablePrinter auc_table("PR AUC distribution (x100)");
  auc_table.SetHeader({"method", "q1", "median", "q3"});
  for (size_t mi = 0; mi < methods.size(); ++mi) {
    const auto q = stats::ComputeQuartiles(aucs[mi]);
    auc_table.AddRow(methods[mi], {q.q1, q.median, q.q3}, 2);
  }
  auc_table.Print();

  const auto wmw = stats::WilcoxonRankSum(aucs[2], aucs[1]);
  std::printf("\nWilcoxon-Mann-Whitney RPx vs Pc: z = %.2f, p = %.3g "
              "(paper: p < 1e-15 at 50 reps)\n",
              wmw.statistic, wmw.p_value);

  if (!flags.out_dir.empty()) {
    CsvWriter csv({"recall", "P", "Pc", "RPx"});
    for (size_t g = 0; g < recall_grid.size(); ++g) {
      std::vector<double> row{recall_grid[g]};
      for (size_t mi = 0; mi < methods.size(); ++mi) {
        double sum = 0.0;
        for (int rep = 0; rep < reps; ++rep) {
          sum += curves[mi][static_cast<size_t>(rep)][g];
        }
        row.push_back(sum / reps);
      }
      csv.AddRow(row);
    }
    (void)csv.WriteFile(flags.out_dir + "/fig11.csv");
  }
  return 0;
}

}  // namespace reds::exp

int main(int argc, char** argv) { return reds::exp::Main(argc, argv); }
