#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>

#include "fabp/bio/packed.hpp"
#include "fabp/bio/sequence.hpp"
#include "fabp/core/backend.hpp"
#include "fabp/core/engine.hpp"
#include "fabp/core/query_compiler.hpp"
#include "fabp/net/wire.hpp"

namespace perfbench {
namespace {

namespace bio = fabp::bio;
namespace core = fabp::core;
namespace net = fabp::net;
using Clock = std::chrono::steady_clock;

/// Seconds each replayed layer is timed for, at least.
constexpr double kLayerSeconds = 0.4;

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Times `round` (one pass over the recorded inputs, `ops` operations)
/// until kLayerSeconds have passed and at least `min_rounds` ran; returns
/// the median seconds per operation over the rounds.
double time_per_op(std::size_t ops, const std::function<void()>& round,
                   std::size_t min_rounds = 3) {
  std::vector<double> per_op;
  const auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(kLayerSeconds));
  while (per_op.size() < min_rounds || Clock::now() < until) {
    const auto t0 = Clock::now();
    round();
    per_op.push_back(std::chrono::duration<double>(Clock::now() - t0).count() /
                     static_cast<double>(ops));
  }
  return median_of(per_op);
}

/// Keeps the optimizer from dropping a replayed call's result.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

std::vector<bio::ProteinSequence> distinct_proteins(
    const std::vector<RecordedRequest>& requests, std::size_t limit) {
  std::vector<bio::ProteinSequence> out;
  std::set<std::string> seen;
  for (const RecordedRequest& r : requests) {
    if (out.size() >= limit) break;
    if (seen.insert(r.protein).second)
      out.push_back(bio::ProteinSequence::parse(r.protein));
  }
  return out;
}

core::BackendKind backend_kind(const std::string& name) {
  return name == "tiled" ? core::BackendKind::Tiled : core::BackendKind::HwSim;
}

/// Runs `requests` through a fresh engine (one worker, queue closed until
/// every request is in, so batch composition is fixed) and hands the
/// drained engine to `read`.
void drive_engine(core::EngineConfig config, const bio::PackedNucleotides& ref,
                  const std::vector<bio::ProteinSequence>& queries,
                  std::uint32_t threshold,
                  const std::function<void(core::Engine&)>& read) {
  config.workers = 1;
  config.autostart = false;
  config.queue_capacity = std::max<std::size_t>(queries.size(), 64);
  core::Engine engine{config};
  engine.upload_reference(ref);
  std::vector<core::Ticket> tickets;
  for (const auto& q : queries) tickets.push_back(engine.submit(q, threshold));
  engine.start();
  for (core::Ticket& t : tickets)
    if (!t.wait()) throw std::runtime_error{"replayed engine request failed"};
  read(engine);
}

}  // namespace

Metrics replay_layers(const Workload& w, const LiveResult& live) {
  if (live.requests.empty() || live.response_payloads.empty())
    throw std::runtime_error{"nothing recorded to replay"};
  Metrics m;
  const Reference& ref = w.references[0];
  // Scans are replayed at the live run's mean batch occupancy, at most
  // the closed-loop clients on the replayed reference.
  std::size_t clients = 0;
  for (const ClientSpec& c : w.clients) clients += c.database == ref.database;
  std::size_t batch = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(live.batch_occupancy)), 1, clients);

  // --- live layers (the timed run's own replies and stats text)
  m.emplace_back("net.transit_ms", live.transit_ms);
  m.emplace_back("net.server.hold_ms",
                 live.server_seconds_p50_ms - live.engine_p50_ms);
  m.emplace_back("core.engine.latency_ms_p50", live.engine_p50_ms);
  m.emplace_back("core.engine.batch_occupancy", live.batch_occupancy);

  // --- wire codec
  std::vector<std::string> request_bodies;
  for (std::size_t i = 0; i < live.requests.size() && i < 2048; ++i) {
    net::AlignRequest r;
    r.id = i + 1;
    r.threshold = w.threshold;
    r.protein = live.requests[i].protein;
    r.database = live.requests[i].database;
    r.tenant = live.requests[i].tenant;
    request_bodies.push_back(net::frame(net::encode(r)).substr(4));
  }
  const double request_decode_s = time_per_op(request_bodies.size(), [&] {
    for (const std::string& body : request_bodies) {
      std::string_view payload;
      net::AlignRequest r;
      if (!net::verify_frame_body(body, payload) || !net::decode(payload, r))
        throw std::runtime_error{"recorded request does not decode"};
      keep(r);
    }
  });
  m.emplace_back("net.wire.request_decode_us", request_decode_s * 1e6);

  std::vector<net::AlignResponse> responses;
  std::vector<std::string> response_bodies;
  double frame_bytes = 0.0, hits = 0.0;
  for (const std::string& payload : live.response_payloads) {
    net::AlignResponse r;
    if (!net::decode(payload, r))
      throw std::runtime_error{"recorded response does not decode"};
    hits += static_cast<double>(r.hits.size() + r.reverse_hits.size());
    responses.push_back(std::move(r));
    response_bodies.push_back(net::frame(payload).substr(4));
    frame_bytes += static_cast<double>(response_bodies.back().size() + 4);
  }
  const double encode_s = time_per_op(responses.size(), [&] {
    for (const net::AlignResponse& r : responses) keep(net::frame(net::encode(r)));
  });
  const double decode_s = time_per_op(response_bodies.size(), [&] {
    for (const std::string& body : response_bodies) {
      std::string_view payload;
      net::AlignResponse r;
      if (!net::verify_frame_body(body, payload) || !net::decode(payload, r))
        throw std::runtime_error{"recorded response does not decode"};
      keep(r);
    }
  });
  m.emplace_back("net.wire.response_encode_ms", encode_s * 1e3);
  m.emplace_back("net.wire.response_decode_ms", decode_s * 1e3);
  m.emplace_back("net.wire.bytes_per_hit", hits > 0 ? frame_bytes / hits : 0.0);

  // --- query compiler
  const std::vector<bio::ProteinSequence> distinct =
      distinct_proteins(live.requests, 256);
  std::unique_ptr<core::QueryCompiler> compiler;
  const double miss_s = time_per_op(distinct.size(), [&] {
    compiler = std::make_unique<core::QueryCompiler>(distinct.size());
    for (const auto& p : distinct) keep(compiler->compile(p));
  });
  const double hit_s = time_per_op(distinct.size(), [&] {
    for (const auto& p : distinct) keep(compiler->compile(p));
  });
  core::QueryCompiler sized{core::EngineConfig{}.compiler_capacity};
  for (const RecordedRequest& r : live.requests)
    sized.compile(bio::ProteinSequence::parse(r.protein));
  const core::QueryCompilerStats cs = sized.stats();
  const double hit_ratio = static_cast<double>(cs.hits) /
                           static_cast<double>(cs.hits + cs.misses);
  m.emplace_back("core.query_compiler.miss_us", miss_s * 1e6);
  m.emplace_back("core.query_compiler.hit_us", hit_s * 1e6);
  m.emplace_back("core.query_compiler.hit_ratio", hit_ratio);

  // --- tiled scan over the workload's first reference, on the strands a
  // default-configured server searches
  const core::HostConfig host{};
  const double strands = host.search_both_strands ? 2.0 : 1.0;
  const bio::PackedNucleotides packed{
      bio::NucleotideSequence::parse(bio::SeqKind::Dna, ref.dna)};
  core::ReferenceStore store;
  store.upload(packed, host.search_both_strands);
  const auto tiled = core::make_backend(core::BackendKind::Tiled, host, store);
  std::vector<core::CompiledQueryPtr> compiled;
  for (std::size_t i = 0; i < distinct.size() && i < 32; ++i)
    compiled.push_back(core::compile_query(distinct[i]));
  batch = std::clamp<std::size_t>(batch, 1, compiled.size());
  const std::size_t groups = std::max<std::size_t>(1, compiled.size() / batch);
  const auto group = [&](std::size_t g) {
    return std::span<const core::CompiledQueryPtr>{compiled}.subspan(
        (g % groups) * batch, batch);
  };
  const std::vector<std::uint32_t> thresholds(batch, w.threshold);
  const auto scan = [&](std::span<const core::CompiledQueryPtr> qs) {
    keep(tiled->scan_batch(qs, std::span{thresholds}.first(qs.size()), false,
                           nullptr));
    if (host.search_both_strands)
      keep(tiled->scan_batch(qs, std::span{thresholds}.first(qs.size()), true,
                             nullptr));
  };
  std::size_t next = 0;
  const double b1_s = time_per_op(1, [&] {
    scan(std::span{compiled}.subspan(next++ % compiled.size(), 1));
  }, 8);
  next = 0;
  const double bn_s = time_per_op(batch, [&] { scan(group(next++)); }, 4);
  m.emplace_back("core.bitscan_tiled.scan_ms_b1", b1_s * 1e3);
  m.emplace_back("core.bitscan_tiled.scan_ms_per_query_bN", bn_s * 1e3);
  m.emplace_back("core.bitscan_tiled.gbases_per_s",
                 static_cast<double>(ref.dna.size()) * strands / bn_s * 1e-9);

  // --- hw-sim device model with the hit lists precomputed, as the engine
  // runs a coalesced batch
  const auto hwsim = core::make_backend(core::BackendKind::HwSim, host, store);
  std::vector<std::vector<std::vector<core::Hit>>> forward(groups), reverse(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    forward[g] = tiled->scan_batch(group(g), thresholds, false, nullptr);
    if (host.search_both_strands)
      reverse[g] = tiled->scan_batch(group(g), thresholds, true, nullptr);
  }
  next = 0;
  const double hwsim_s = time_per_op(batch, [&] {
    const std::size_t g = next++ % groups;
    std::vector<core::BackendRequest> requests(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      requests[i].query = group(g)[i].get();
      requests[i].threshold = w.threshold;
      requests[i].forward_hits = &forward[g][i];
      requests[i].reverse_hits =
          host.search_both_strands ? &reverse[g][i] : nullptr;
    }
    auto runs = hwsim->run_many(requests);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (!runs[i]) throw std::runtime_error{"replayed hw-sim run failed"};
      keep(core::finalize_run(host, *requests[i].query,
                              std::move(runs[i]).value(), packed.byte_size()));
    }
  }, 4);
  m.emplace_back("core.backend.hwsim_ms_per_query", hwsim_s * 1e3);

  // --- publishing a generation of the reference (the work of a swap
  // after the file is parsed)
  core::EngineConfig engine_config;
  engine_config.backend = backend_kind(w.backend);
  engine_config.shard.shard_count = w.shards;
  {
    core::Engine engine{engine_config};
    std::vector<double> publish;
    for (int k = 0; k < 3; ++k) {
      bio::PackedNucleotides copy = packed;
      const auto t0 = Clock::now();
      engine.upload_database("replay", std::move(copy));
      publish.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    }
    m.emplace_back("core.backend.publish_ms", median_of(publish) * 1e3);
  }

  // --- shard scatter/gather on a 2-shard engine, and the modeled device
  // scheduler at the closed loop's batch size
  std::vector<bio::ProteinSequence> queries(distinct.begin(),
                                            distinct.begin() + std::min<std::size_t>(distinct.size(), 4 * batch));
  core::EngineConfig sharded = engine_config;
  sharded.shard.shard_count = 2;
  sharded.max_coalesce = batch;
  drive_engine(sharded, packed, queries, w.threshold, [&](core::Engine& e) {
    m.emplace_back("core.shard.scatter_gather_ms_per_query",
                   e.shard_overhead_seconds() * 1e3 /
                       static_cast<double>(queries.size()));
  });
  core::EngineConfig device;
  device.backend = core::BackendKind::HwSim;
  device.max_coalesce = batch;
  drive_engine(device, packed, queries, w.threshold, [&](core::Engine& e) {
    const core::DevicePipelineStats p = e.pipeline_stats();
    m.emplace_back("hw.scheduler.modeled_qps", p.modeled_qps());
    m.emplace_back("hw.scheduler.occupancy", p.occupancy());
    m.emplace_back("hw.scheduler.overlap_efficiency", p.overlap_efficiency());
    m.emplace_back("hw.scheduler.pe_utilization", p.pe_utilization());
  });

  // --- what the layers on the blocking path do not explain: request
  // decode, compile (at the replayed hit ratio), the batch's scan (+ the
  // device model and router on hw-sim / sharded servers), response
  // encode and decode
  double path_ms = request_decode_s * 1e3 +
                   (hit_ratio * hit_s + (1.0 - hit_ratio) * miss_s) * 1e3 +
                   encode_s * 1e3 + decode_s * 1e3;
  double per_query_ms = (batch == 1 ? b1_s : bn_s) * 1e3;
  if (w.backend == "hwsim") per_query_ms += hwsim_s * 1e3;
  if (w.shards > 1)
    for (const auto& [name, value] : m)
      if (name == "core.shard.scatter_gather_ms_per_query") per_query_ms += value;
  path_ms += per_query_ms * static_cast<double>(batch);
  m.emplace_back("e2e.unattributed_ms", live.latency_mean_ms - path_ms);
  return m;
}

}  // namespace perfbench
