#pragma once
// The live part of a run: spawn `fabp serve --tcp` on the generated
// inputs, time its set-up, drive it over TCP from closed-loop clients for
// the timed phase, check every response, and collect what the server's
// own replies and stats text say about its layers.

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"

namespace perfbench {

struct LiveOptions {
  std::string fabp;      ///< path of the `fabp` binary
  std::string work_dir;  ///< generated files and server logs
  double seconds = 10.0; ///< length of the timed phase
  bool record = false;   ///< keep traffic for the layer replay
};

/// One request of the timed phase, as the replay needs it.
struct RecordedRequest {
  std::string protein;
  std::string database;
  std::string tenant;
};

struct LiveResult {
  // --- operations
  std::size_t aligns_attempted = 0;
  std::size_t aligns_failed = 0;
  std::size_t swaps_attempted = 0;
  std::size_t swaps_failed = 0;
  std::size_t check_failures = 0;
  std::vector<std::string> check_messages;  ///< the first few

  // --- end-to-end
  std::size_t timed_aligns = 0;  ///< completed in the timed phase
  double wall_s = 0.0;
  double qps = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_mean_ms = 0.0;     ///< first client's database only
  double setup_s = 0.0;
  double rss_peak_mb = 0.0;
  double server_cpu_ms_per_req = 0.0;
  double resp_bytes_per_req = 0.0;
  double swap_ms = 0.0;
  std::size_t swaps_timed = 0;
  double hits_per_req = 0.0;

  // --- layers seen from outside
  double transit_ms = 0.0;          ///< mean(round trip - server_seconds)
  double server_seconds_p50_ms = 0.0;  ///< first client's database only
  // Read from the stats text only when recording (the traced run).
  double engine_p50_ms = 0.0;       ///< stats text, first database
  double batch_occupancy = 0.0;     ///< stats text, engine line

  // --- traffic for the replay (LiveOptions::record)
  std::vector<RecordedRequest> requests;          ///< timed, in send order
  std::vector<std::string> response_payloads;     ///< a bounded sample
};

/// Runs the live part; throws std::runtime_error when the server cannot
/// be started or answered nothing.
LiveResult run_live(const Workload& workload, const LiveOptions& options);

}  // namespace perfbench
