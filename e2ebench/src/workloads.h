// The benchmark's workloads. Each runs its measured phase for about
// args.seconds and returns the end-to-end metrics (args.trace == false) or
// the per-layer metrics of a traced run (args.trace == true), plus the
// outcome of its correctness checks.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include "common.h"

namespace e2e {

/// Table-3 + Table-4 quick cells through one DiscoveryEngine, closed loop
/// with one job per hardware thread outstanding.
Outcome RunPaperBatch(const Args& args);

/// morris (M = 20), N = 400, L = 100k, tuned metamodels; one job at a time.
Outcome RunPaperSlice(const Args& args);

/// In-process DiscoveryServer on a unix socket, driven open-loop over a
/// fixed ladder of offered rates.
Outcome RunServeMixed(const Args& args);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
