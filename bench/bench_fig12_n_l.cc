// Reproduces paper Figure 12: learning curves on "morris".
//   Left plots:  quality vs the number of simulations N (L fixed) for
//                P / Pc / RPx / RPxp (PR AUC) and BI / BIc / RBIcxp (WRAcc).
//   Right plots: quality vs the number of relabeled points L at N = 400.
// The key findings to reproduce: the REDS learning curves dominate the
// baselines, and "RPxp" beats "P" even at L = N = 400 (the Proposition 1
// effect of probability labels).
#include <cstdio>

#include "core/method.h"
#include "core/quality.h"
#include "exp/bench_flags.h"
#include "functions/datagen.h"
#include "functions/registry.h"
#include "stats/descriptive.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace reds::exp {
namespace {

struct Sweep {
  std::vector<int> values;     // N or L values
  std::vector<std::string> methods;
};

}  // namespace

int Main(int argc, char** argv) {
  const BenchFlags flags = ParseBenchFlags(argc, argv);
  const int reps = PickReps(flags, 3, 50);

  auto function = fun::MakeFunction("morris").value();
  const Dataset test = fun::MakeScenarioDataset(
      *function, flags.full ? 20000 : 8000, fun::DesignKind::kLatinHypercube,
      DeriveSeed(flags.seed, 1));

  const int default_l = flags.full ? 100000 : 20000;
  const std::vector<int> n_values = flags.full
                                        ? std::vector<int>{200, 400, 800, 1600, 3200}
                                        : std::vector<int>{200, 400, 800};
  const std::vector<int> l_values =
      flags.full ? std::vector<int>{400, 1600, 6400, 25000, 100000}
                 : std::vector<int>{400, 1600, 6400, 20000};

  auto run_one = [&](const std::string& method, int n, int l, int rep) {
    const Dataset train = fun::MakeScenarioDataset(
        *function, n, fun::DesignKind::kLatinHypercube,
        DeriveSeed(flags.seed, 100 + 7ULL * n + rep));
    RunOptions options;
    options.l_prim = l;
    options.l_bi = std::min(l, 10000);
    options.tune_metamodel = flags.full;
    options.seed = DeriveSeed(flags.seed, 31ULL * n + 17ULL * l + rep);
    const MethodOutput out =
        RunMethod(*MethodSpec::Parse(method), train, options);
    const bool is_bi = method.find("BI") != std::string::npos;
    if (is_bi) return 100.0 * BoxWRAcc(test, out.last_box);
    return 100.0 * PrAucOnData(out.trajectory, test);
  };

  // --- Left plots: quality vs N. ---
  const std::vector<std::string> prim_methods{"P", "Pc", "RPx", "RPxp"};
  const std::vector<std::string> bi_methods{"BI", "BIc", "RBIcxp"};

  auto sweep_n = [&](const std::vector<std::string>& methods,
                     const char* title, const char* csv_name) {
    std::vector<std::vector<std::vector<double>>> results(
        methods.size(), std::vector<std::vector<double>>(
                            n_values.size(), std::vector<double>(reps)));
    ThreadPool pool(flags.threads);
    for (size_t mi = 0; mi < methods.size(); ++mi) {
      for (size_t ni = 0; ni < n_values.size(); ++ni) {
        for (int rep = 0; rep < reps; ++rep) {
          pool.Submit([&, mi, ni, rep] {
            results[mi][ni][static_cast<size_t>(rep)] =
                run_one(methods[mi], n_values[ni], default_l, rep);
          });
        }
      }
    }
    pool.Wait();
    TablePrinter table(title);
    std::vector<std::string> header{"N"};
    header.insert(header.end(), methods.begin(), methods.end());
    table.SetHeader(header);
    for (size_t ni = 0; ni < n_values.size(); ++ni) {
      std::vector<double> row;
      for (size_t mi = 0; mi < methods.size(); ++mi) {
        row.push_back(stats::Median(results[mi][ni]));
      }
      table.AddRow(std::to_string(n_values[ni]), row, 2);
    }
    table.Print();
    std::printf("\n");
    if (!flags.out_dir.empty()) {
      std::vector<std::string> csv_header{"n"};
      csv_header.insert(csv_header.end(), methods.begin(), methods.end());
      CsvWriter csv(csv_header);
      for (size_t ni = 0; ni < n_values.size(); ++ni) {
        std::vector<double> row{static_cast<double>(n_values[ni])};
        for (size_t mi = 0; mi < methods.size(); ++mi) {
          row.push_back(stats::Median(results[mi][ni]));
        }
        csv.AddRow(row);
      }
      (void)csv.WriteFile(flags.out_dir + "/" + csv_name);
    }
  };

  std::printf("Figure 12, left: learning curves on 'morris' (median of %d "
              "reps, L = %d)\n\n",
              reps, default_l);
  sweep_n(prim_methods, "median PR AUC vs N", "fig12_prim_n.csv");
  sweep_n(bi_methods, "median WRAcc vs N", "fig12_bi_n.csv");

  // --- Right plots: quality vs L at N = 400. ---
  std::printf("Figure 12, right: influence of L at N = 400\n\n");
  {
    std::vector<std::vector<std::vector<double>>> results(
        2, std::vector<std::vector<double>>(l_values.size(),
                                            std::vector<double>(reps)));
    std::vector<double> baseline(reps);
    ThreadPool pool(flags.threads);
    for (size_t li = 0; li < l_values.size(); ++li) {
      for (int rep = 0; rep < reps; ++rep) {
        pool.Submit([&, li, rep] {
          results[0][li][static_cast<size_t>(rep)] =
              run_one("RPx", 400, l_values[li], rep);
          results[1][li][static_cast<size_t>(rep)] =
              run_one("RPxp", 400, l_values[li], rep);
        });
      }
    }
    for (int rep = 0; rep < reps; ++rep) {
      pool.Submit([&, rep] { baseline[rep] = run_one("P", 400, 1, rep); });
    }
    pool.Wait();
    TablePrinter table("median PR AUC vs L (N = 400)");
    table.SetHeader({"L", "RPx", "RPxp"});
    for (size_t li = 0; li < l_values.size(); ++li) {
      table.AddRow(std::to_string(l_values[li]),
                   {stats::Median(results[0][li]), stats::Median(results[1][li])},
                   2);
    }
    table.Print();
    std::printf("baseline P (no REDS): median PR AUC %.2f\n",
                stats::Median(baseline));
    std::printf("\nNote RPxp at L = 400 = N already beats P -- probability "
                "labels lower the estimator variance (Proposition 1).\n");
  }
  return 0;
}

}  // namespace reds::exp

int main(int argc, char** argv) { return reds::exp::Main(argc, argv); }
