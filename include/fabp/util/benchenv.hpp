#pragma once
// Host-environment snapshot for benchmark provenance.
//
// A benchmark JSON without the machine it ran on is unreproducible: the
// thread-sweep and bandwidth numbers in BENCH_*.json only mean something
// relative to the core count, the CPU affinity mask the process was
// launched under (taskset/cgroups routinely shrink it below the nominal
// core count) and the cpufreq governor (a "powersave" governor can halve
// single-thread throughput and wreck run-to-run stability).  BenchEnv
// captures all three once at startup so every bench embeds them in its
// config block.

#include <cstddef>
#include <string>

namespace fabp::util {

struct BenchEnv {
  /// std::thread::hardware_concurrency() — the nominal core/SMT count.
  std::size_t hardware_threads = 0;
  /// CPUs actually schedulable for this process (sched_getaffinity mask
  /// population); equals hardware_threads unless pinned/containerised.
  /// Falls back to hardware_threads where the probe is unavailable.
  std::size_t affinity_cpus = 0;
  /// cpufreq scaling governor of cpu0 ("performance", "powersave", ...)
  /// or "unknown" when sysfs does not expose one (VMs, containers,
  /// non-Linux hosts).
  std::string governor = "unknown";
};

/// CPUs this process may run on: the sched_getaffinity mask population,
/// else std::thread::hardware_concurrency(); never 0.  Sizes the serving
/// engine's scan pool and the default thread counts of `fabp scan` and
/// bench_bitscan, so a pinned or containerised process does not
/// oversubscribe the cores it was given.
std::size_t available_cpus();

/// Probes the host once per call; cheap enough to call per bench run.
BenchEnv probe_bench_env();

}  // namespace fabp::util
