// perfbench: one run of the `fabp serve --tcp` benchmark (README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --fabp <path of fabp> --work <scratch dir>
//
// Prints, as its last line, one JSON object with `correct`, `attempted`,
// `failed` and `metrics` (name -> {value, unit}): every end-to-end
// metric, plus every per-layer metric when --trace is 1.  Exits 2 on a
// usage error and 1 when the run could not be completed.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>

#include "inputs.hpp"
#include "live.hpp"
#include "replay.hpp"

namespace {

using perfbench::Metrics;

/// Unit of every metric the benchmark can print.
const std::map<std::string, std::string>& units() {
  static const std::map<std::string, std::string> kUnits{
      {"qps", "req/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"setup_s", "s"},
      {"rss_peak_mb", "MiB"},
      {"server_cpu_ms_per_req", "ms"},
      {"resp_bytes_per_req", "B"},
      {"swap_ms", "ms"},
      {"net.transit_ms", "ms"},
      {"net.server.hold_ms", "ms"},
      {"core.engine.latency_ms_p50", "ms"},
      {"core.engine.batch_occupancy", "req/batch"},
      {"net.wire.request_decode_us", "us"},
      {"net.wire.response_encode_ms", "ms"},
      {"net.wire.response_decode_ms", "ms"},
      {"net.wire.bytes_per_hit", "B"},
      {"core.query_compiler.miss_us", "us"},
      {"core.query_compiler.hit_us", "us"},
      {"core.query_compiler.hit_ratio", "ratio"},
      {"core.bitscan_tiled.scan_ms_b1", "ms"},
      {"core.bitscan_tiled.scan_ms_per_query_bN", "ms"},
      {"core.bitscan_tiled.gbases_per_s", "Gbase/s"},
      {"core.backend.hwsim_ms_per_query", "ms"},
      {"core.backend.publish_ms", "ms"},
      {"core.shard.scatter_gather_ms_per_query", "ms"},
      {"hw.scheduler.modeled_qps", "1/s"},
      {"hw.scheduler.occupancy", "ratio"},
      {"hw.scheduler.overlap_efficiency", "ratio"},
      {"hw.scheduler.pe_utilization", "ratio"},
      {"e2e.unattributed_ms", "ms"},
  };
  return kUnits;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

int usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --fabp <path> --work <dir>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* key : {"workload", "seed", "seconds", "trace", "fabp", "work"})
    if (!args.contains(key)) return usage();

  try {
    const perfbench::Workload workload = perfbench::make_workload(
        args["workload"], std::stoull(args["seed"]));
    perfbench::LiveOptions options;
    options.fabp = args["fabp"];
    options.work_dir = args["work"];
    options.seconds = std::stod(args["seconds"]);
    options.record = args["trace"] == "1";
    const perfbench::LiveResult live = perfbench::run_live(workload, options);

    Metrics metrics{
        {"qps", live.qps},
        {"latency_p50_ms", live.latency_p50_ms},
        {"latency_p99_ms", live.latency_p99_ms},
        {"setup_s", live.setup_s},
        {"rss_peak_mb", live.rss_peak_mb},
        {"server_cpu_ms_per_req", live.server_cpu_ms_per_req},
        {"resp_bytes_per_req", live.resp_bytes_per_req},
        {"swap_ms", live.swap_ms},
    };
    if (options.record)
      for (auto& entry : perfbench::replay_layers(workload, live))
        metrics.push_back(std::move(entry));

    std::cerr << "perfbench " << workload.name << " seed " << workload.seed
              << ": " << live.timed_aligns << " timed aligns in "
              << live.wall_s << " s, " << live.hits_per_req
              << " hits/response, " << live.resp_bytes_per_req
              << " B/response, p50 " << live.latency_p50_ms << " ms, mean "
              << live.latency_mean_ms << " ms, server p50 "
              << live.server_seconds_p50_ms << " ms, engine p50 "
              << live.engine_p50_ms << " ms, occupancy "
              << live.batch_occupancy << ", " << live.swaps_timed
              << " swaps timed\n";
    for (const std::string& message : live.check_messages)
      std::cerr << "check failed: " << message << "\n";

    std::string out = "{\"correct\": ";
    out += live.check_failures == 0 ? "true" : "false";
    out += ", \"attempted\": " +
           std::to_string(live.aligns_attempted + live.swaps_attempted);
    out += ", \"failed\": " +
           std::to_string(live.aligns_failed + live.swaps_failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : metrics) {
      if (!std::isfinite(value))
        throw std::runtime_error{"metric " + name + " is not finite"};
      char number[64];
      std::snprintf(number, sizeof number, "%.17g", value);
      out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
             number + ", \"unit\": " + json_string(units().at(name)) + "}";
      first = false;
    }
    out += "}}";
    std::cout << out << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
