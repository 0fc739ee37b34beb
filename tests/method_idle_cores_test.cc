// Results do not depend on how many cores were idle. Each method runs twice
// on the same morris training set (M = 20, N = 400): once on an idle process,
// where CV tuning, the Pc/PBc plan grids, bumping replicates, tree fits,
// labeling and the sketch/code passes fan out onto idle cores, and once with
// every fork-join slot held by a blocked pool task, where every region runs
// inline. The chosen alpha and m, the boxes, the serialized metamodel and
// the streamed BinnedIndex must be byte-identical.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "core/method.h"
#include "functions/datagen.h"
#include "functions/registry.h"
#include "hold_slots.h"
#include "ml/serialize.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace reds {
namespace {

struct MethodRun {
  MethodPlan plan;
  MethodOutput out;
  std::string metamodel_bytes;  // empty unless REDS
  std::string index_bytes;      // empty unless streamed REDS
};

MethodRun RunOnce(const std::string& method, const Dataset& train) {
  const MethodSpec spec = MethodSpec::Parse(method).value();
  MethodRun run;
  RunOptions options;
  options.seed = 17;
  options.l_prim = 20000;
  options.bumping_q = 20;
  // Capture the fitted metamodel and the finished streamed index as the
  // pipeline produces them.
  options.metamodel_provider =
      [&run](const Dataset& d, ml::MetamodelKind kind, bool tune,
             ml::TuningBudget budget, ml::SplitBackend backend,
             ml::GrowthPolicy growth, int max_leaves, uint64_t seed) {
        std::shared_ptr<const ml::Metamodel> model(
            ml::FitMetamodel(kind, d, seed, tune, budget, nullptr, nullptr,
                             backend, growth, max_leaves));
        util::ByteWriter bytes;
        ml::SerializeMetamodel(*model, kind, &bytes);
        run.metamodel_bytes = bytes.data();
        return model;
      };
  options.streamed_relabel_provider =
      [&run](uint64_t, int, int,
             const std::function<std::shared_ptr<const StreamedDataset>()>&
                 build) {
        std::shared_ptr<const StreamedDataset> data = build();
        util::ByteWriter bytes;
        data->index->Serialize(&bytes);
        run.index_bytes = bytes.data();
        return data;
      };
  run.plan = PlanMethod(spec, train, options);
  run.out = ExecuteMethodPlan(run.plan, train, options);
  return run;
}

TEST(MethodIdleCoresTest, IdleAndBusyRunsAreIdentical) {
  auto fn = fun::MakeFunction("morris").value();
  const Dataset train =
      fun::MakeScenarioDataset(*fn, 400, fun::DefaultDesignFor(*fn), 4242);
  ASSERT_EQ(train.num_cols(), 20);
  for (const char* method : {"Pc", "PB", "PBc", "RPf", "RPx", "RPs"}) {
    SCOPED_TRACE(method);
    const ForkJoinStats idle_before = GetForkJoinStats();
    const MethodRun idle = RunOnce(method, train);
    const ForkJoinStats idle_after = GetForkJoinStats();
    MethodRun busy;
    ForkJoinStats busy_before, busy_after;
    {
      HoldAllSlots hold;
      busy_before = GetForkJoinStats();
      busy = RunOnce(method, train);
      busy_after = GetForkJoinStats();
    }
    // The comparison means something: the idle run fanned out, the busy
    // one ran every region inline.
    EXPECT_GT(idle_after.regions, idle_before.regions);
    if (HardwareSlots() > 1) {
      EXPECT_GT(idle_after.helper_chunks, idle_before.helper_chunks);
    }
    EXPECT_EQ(busy_after.helper_chunks, busy_before.helper_chunks);
    EXPECT_EQ(busy_after.inline_regions - busy_before.inline_regions,
              busy_after.regions - busy_before.regions);

    EXPECT_EQ(idle.plan.alpha, busy.plan.alpha);
    EXPECT_EQ(idle.plan.m, busy.plan.m);
    EXPECT_EQ(idle.out.chosen_alpha, busy.out.chosen_alpha);
    EXPECT_EQ(idle.out.chosen_m, busy.out.chosen_m);
    ASSERT_EQ(idle.out.trajectory.size(), busy.out.trajectory.size());
    ASSERT_FALSE(idle.out.trajectory.empty());
    for (size_t i = 0; i < idle.out.trajectory.size(); ++i) {
      EXPECT_TRUE(idle.out.trajectory[i] == busy.out.trajectory[i])
          << "box " << i;
    }
    EXPECT_TRUE(idle.out.last_box == busy.out.last_box);
    const bool reds = std::string(method).front() == 'R';
    EXPECT_EQ(idle.metamodel_bytes.empty(), !reds);
    EXPECT_EQ(idle.index_bytes.empty(), !reds);
    EXPECT_EQ(idle.metamodel_bytes, busy.metamodel_bytes);
    EXPECT_EQ(idle.index_bytes, busy.index_bytes);
  }
}

}  // namespace
}  // namespace reds
