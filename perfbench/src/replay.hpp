#pragma once
// The traced part of a run: the timed phase's recorded requests and a
// sample of its responses, fed on one thread through the public function
// of each layer (wire codec, query compiler, tiled scan, hw-sim backend,
// engine publish, shard router, device scheduler).  Each layer is timed
// from the benchmark's side of the call; nothing inside the program is
// instrumented, so the timed runs carry no tracing cost.

#include <string>
#include <utility>
#include <vector>

#include "inputs.hpp"
#include "live.hpp"

namespace perfbench {

using Metrics = std::vector<std::pair<std::string, double>>;

/// Per-layer metrics: the live ones from `live`, the replayed ones timed
/// here.  Names match BENCHMARK.json's per_layer list.
Metrics replay_layers(const Workload& workload, const LiveResult& live);

}  // namespace perfbench
