#include "fabp/core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "fabp/bio/generate.hpp"
#include "fabp/core/golden.hpp"
#include "fabp/util/benchenv.hpp"

namespace fabp::core {
namespace {

using bio::NucleotideSequence;
using bio::ProteinSequence;

std::vector<ProteinSequence> make_queries(std::size_t count,
                                          util::Xoshiro256& rng) {
  std::vector<ProteinSequence> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    queries.push_back(bio::random_protein(6 + i % 6, rng));
  return queries;
}

std::uint32_t half_threshold(const ProteinSequence& query) {
  return static_cast<std::uint32_t>(query.size() * 3 / 2);
}

// align_sync is a one-task device invocation, so it reports exactly what a
// lone submit() of the same request does — hits, reverse hits, the
// multi-PE kernel time and every recovery counter — under injected faults.
TEST(Engine, AlignSyncMatchesSubmitOnMultiPeBothStrands) {
  util::Xoshiro256 rng{913};
  const NucleotideSequence ref = bio::random_dna(40'000, rng);
  const ProteinSequence query = bio::random_protein(12, rng);
  EngineConfig config;
  config.host.search_both_strands = true;
  config.host.device_batch.pe_count = 2;
  config.host.fault.flip_rate = 3e-4;
  config.host.fault.seed = 0x5eed;
  config.host.recovery.spot_check_samples = 8;

  Engine sync_engine{config};
  sync_engine.upload_reference(NucleotideSequence{ref});
  const Expected<HostRunReport> sync =
      sync_engine.align_sync(query, half_threshold(query));
  Engine async_engine{config};
  async_engine.upload_reference(NucleotideSequence{ref});
  const Expected<HostRunReport> async =
      async_engine.submit(query, half_threshold(query)).wait();
  ASSERT_TRUE(sync.has_value());
  ASSERT_TRUE(async.has_value());

  EXPECT_FALSE(sync->hits.empty());
  EXPECT_EQ(sync->hits, async->hits);
  EXPECT_EQ(sync->reverse_hits, async->reverse_hits);
  EXPECT_GT(sync->kernel_s, 0.0);
  EXPECT_EQ(sync->kernel_s, async->kernel_s);
  const RecoveryStats& a = sync->recovery;
  const RecoveryStats& b = async->recovery;
  EXPECT_GT(a.crc_faults, 0u);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.transfer_faults, b.transfer_faults);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.crc_faults, b.crc_faults);
  EXPECT_EQ(a.readback_faults, b.readback_faults);
  EXPECT_EQ(a.rescanned_tiles, b.rescanned_tiles);
  EXPECT_EQ(a.spot_checks, b.spot_checks);
  EXPECT_EQ(a.spot_check_faults, b.spot_check_faults);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.recovery_s, b.recovery_s);
}

// The engine's core determinism contract: results of coalesced concurrent
// submission are hit-for-hit identical to sequential Session::align of the
// same queries — for every backend kind, both strands on.
TEST(Engine, CoalescedEqualsSequentialAllBackends) {
  util::Xoshiro256 rng{911};
  const NucleotideSequence ref = bio::random_dna(30000, rng);
  const std::vector<ProteinSequence> queries = make_queries(48, rng);

  for (const BackendKind kind :
       {BackendKind::HwSim, BackendKind::Tiled}) {
    EngineConfig config;
    config.host.search_both_strands = true;
    config.backend = kind;
    config.workers = 2;

    // Sequential truth through the same backend kind.
    Engine sequential{config};
    sequential.upload_reference(NucleotideSequence{ref});
    std::vector<std::vector<Hit>> expected_fwd, expected_rev;
    for (const ProteinSequence& query : queries) {
      Expected<HostRunReport> report =
          sequential.align_sync(query, half_threshold(query));
      ASSERT_TRUE(report.has_value()) << to_string(kind);
      expected_fwd.push_back(report->hits);
      expected_rev.push_back(report->reverse_hits);
    }

    // Concurrent submission; the workers coalesce whatever queues up.
    Engine engine{config};
    engine.upload_reference(NucleotideSequence{ref});
    std::vector<Ticket> tickets;
    tickets.reserve(queries.size());
    for (const ProteinSequence& query : queries)
      tickets.push_back(engine.submit(query, half_threshold(query)));
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      Expected<HostRunReport> report = tickets[i].wait();
      ASSERT_TRUE(report.has_value()) << to_string(kind) << " query " << i;
      EXPECT_EQ(report->hits, expected_fwd[i])
          << to_string(kind) << " query " << i;
      EXPECT_EQ(report->reverse_hits, expected_rev[i])
          << to_string(kind) << " query " << i;
    }

    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.submitted, queries.size()) << to_string(kind);
    EXPECT_EQ(stats.completed, queries.size()) << to_string(kind);
    EXPECT_EQ(stats.failed + stats.cancelled + stats.expired, 0u)
        << to_string(kind);
  }
}

// Holding the workers off (autostart=false) makes queue behavior exact:
// capacity bounds admissions and the overflow is rejected with QueueFull.
TEST(Engine, QueueFullRejectsWithTypedError) {
  util::Xoshiro256 rng{912};
  EngineConfig config;
  config.queue_capacity = 2;
  config.autostart = false;
  Engine engine{config};
  engine.upload_reference(bio::random_dna(5000, rng));

  const ProteinSequence query = bio::random_protein(8, rng);
  Ticket a = engine.submit(query, half_threshold(query));
  Ticket b = engine.submit(query, half_threshold(query));
  Ticket rejected = engine.submit(query, half_threshold(query));

  ASSERT_TRUE(rejected.ready());
  const Expected<HostRunReport> outcome = rejected.wait();
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, ErrorCode::QueueFull);
  EXPECT_EQ(engine.stats().rejected, 1u);

  engine.start();
  EXPECT_TRUE(a.wait().has_value());
  EXPECT_TRUE(b.wait().has_value());
}

TEST(Engine, CancelWhileQueuedWinsDeterministically) {
  util::Xoshiro256 rng{913};
  EngineConfig config;
  config.autostart = false;
  Engine engine{config};
  engine.upload_reference(bio::random_dna(5000, rng));

  const ProteinSequence query = bio::random_protein(8, rng);
  Ticket ticket = engine.submit(query, half_threshold(query));
  EXPECT_TRUE(ticket.cancel());
  EXPECT_FALSE(ticket.cancel());  // second cancel loses
  const Expected<HostRunReport> outcome = ticket.wait();
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, ErrorCode::Cancelled);
  EXPECT_EQ(engine.stats().cancelled, 1u);

  // A cancelled entry must not poison the queue for later requests.
  engine.start();
  Ticket live = engine.submit(query, half_threshold(query));
  EXPECT_TRUE(live.wait().has_value());
}

TEST(Engine, DeadlinePassedWhileQueuedExpires) {
  util::Xoshiro256 rng{914};
  EngineConfig config;
  config.autostart = false;
  Engine engine{config};
  engine.upload_reference(bio::random_dna(5000, rng));

  const ProteinSequence query = bio::random_protein(8, rng);
  RequestOptions options;
  options.timeout_s = 1e-4;
  Ticket ticket = engine.submit(query, half_threshold(query), options);
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
  engine.start();
  const Expected<HostRunReport> outcome = ticket.wait();
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, ErrorCode::DeadlineExceeded);
  EXPECT_EQ(engine.stats().expired, 1u);
}

// Unit test for the second deadline checkpoint: drop_expired runs at
// device-dispatch time (after the batch won the execution lock) and must
// fail exactly the at-or-past-deadline entries, compact the batch in
// order, and bump the expired counter.
TEST(Engine, DropExpiredCompactsClaimedBatchAtDispatch) {
  const auto now = std::chrono::steady_clock::now();
  auto counters = std::make_shared<detail::EngineCounters>();
  auto make_state = [&](double offset_s, bool has_deadline) {
    auto state = std::make_shared<detail::RequestState>();
    state->counters = counters;
    state->has_deadline = has_deadline;
    if (has_deadline)
      state->deadline =
          now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(offset_s));
    return state;
  };

  std::vector<std::shared_ptr<detail::RequestState>> batch;
  batch.push_back(make_state(-0.5, true));  // budget burned while claimed
  batch.push_back(make_state(60.0, true));  // live deadline
  batch.push_back(make_state(0.0, false));  // no deadline at all
  batch.push_back(make_state(0.0, true));   // exactly `now` counts as past
  const auto expired_a = batch[0];
  const auto live = batch[1];
  const auto unbounded = batch[2];
  const auto expired_b = batch[3];

  detail::drop_expired(batch, now);

  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], live);       // survivors keep their order
  EXPECT_EQ(batch[1], unbounded);
  EXPECT_EQ(counters->expired.load(), 2u);
  for (const auto& gone : {expired_a, expired_b}) {
    Expected<HostRunReport> outcome = gone->promise.get_future().get();
    ASSERT_FALSE(outcome.has_value());
    EXPECT_EQ(outcome.error().code, ErrorCode::DeadlineExceeded);
  }
}

TEST(Engine, ShutdownFailsQueuedRequests) {
  util::Xoshiro256 rng{915};
  std::vector<Ticket> tickets;
  {
    EngineConfig config;
    config.autostart = false;
    Engine engine{config};
    engine.upload_reference(bio::random_dna(5000, rng));
    const ProteinSequence query = bio::random_protein(8, rng);
    tickets.push_back(engine.submit(query, half_threshold(query)));
    tickets.push_back(engine.submit(query, half_threshold(query)));
  }  // destroyed with both requests still queued
  for (Ticket& ticket : tickets) {
    const Expected<HostRunReport> outcome = ticket.wait();
    ASSERT_FALSE(outcome.has_value());
    EXPECT_EQ(outcome.error().code, ErrorCode::ShuttingDown);
  }
}

TEST(Engine, SubmitWithoutReferenceFailsTyped) {
  Engine engine;
  const ProteinSequence query = ProteinSequence::parse("MFSRW");
  Ticket ticket = engine.submit(query, 1);
  const Expected<HostRunReport> outcome = ticket.wait();
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, ErrorCode::NoReference);
}

TEST(Engine, InvalidEngineConfigRejected) {
  EngineConfig config;
  config.workers = 0;
  EXPECT_EQ(validate_engine_config(config).code, ErrorCode::InvalidConfig);
  try {
    Engine engine{config};
    FAIL() << "invalid engine config must throw at construction";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidConfig);
  }
}

TEST(Engine, CompilerCacheServesRepeatedQueries) {
  util::Xoshiro256 rng{916};
  Engine engine;
  engine.upload_reference(bio::random_dna(5000, rng));
  const ProteinSequence query = bio::random_protein(8, rng);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(engine.align_sync(query, half_threshold(query)).has_value());
  const QueryCompilerStats stats = engine.compiler_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
}

// Concurrency stress: several client threads submitting, cancelling and
// waiting at once against a small queue.  Run under tsan by the check.sh
// engine leg; the invariants here are exact regardless of interleaving.
TEST(Engine, StressConcurrentSubmitCancelWait) {
  util::Xoshiro256 rng{917};
  const NucleotideSequence ref = bio::random_dna(20000, rng);
  const std::vector<ProteinSequence> queries = make_queries(8, rng);

  EngineConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.max_coalesce = 8;
  Engine engine{config};
  engine.upload_reference(NucleotideSequence{ref});

  // Sequential truth per distinct query.
  std::vector<std::vector<Hit>> expected;
  for (const ProteinSequence& query : queries)
    expected.push_back(
        engine.align_sync(query, half_threshold(query))->hits);

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 40;
  std::atomic<std::size_t> wrong{0};
  std::atomic<std::size_t> unexpected_errors{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t q = (c * kPerClient + i) % queries.size();
        RequestOptions options;
        if (i % 7 == 3) options.timeout_s = 1e-6;  // some expire
        Ticket ticket =
            engine.submit(queries[q], half_threshold(queries[q]), options);
        const bool cancelled = (i % 5 == 2) && ticket.cancel();
        Expected<HostRunReport> outcome = ticket.wait();
        if (outcome.has_value()) {
          if (cancelled || outcome->hits != expected[q]) ++wrong;
        } else {
          const ErrorCode code = outcome.error().code;
          const bool acceptable =
              (code == ErrorCode::Cancelled && cancelled) ||
              code == ErrorCode::DeadlineExceeded ||
              code == ErrorCode::QueueFull;
          if (!acceptable) ++unexpected_errors;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(unexpected_errors.load(), 0u);
  const EngineStats stats = engine.stats();
  // Every accepted request resolved exactly once.
  EXPECT_EQ(stats.completed + stats.failed + stats.cancelled + stats.expired,
            stats.submitted);
}

// Under offered load the queue builds while the backend runs, so batches
// must actually form (this is the mechanism bench_engine measures).
TEST(Engine, CoalescingEngagesUnderBurstLoad) {
  util::Xoshiro256 rng{918};
  EngineConfig config;
  config.workers = 1;
  config.autostart = false;  // let the burst queue up deterministically
  config.queue_capacity = 512;
  Engine engine{config};
  engine.upload_reference(bio::random_dna(20000, rng));

  const std::vector<ProteinSequence> queries = make_queries(6, rng);
  std::vector<Ticket> tickets;
  for (std::size_t i = 0; i < 64; ++i) {
    const ProteinSequence& query = queries[i % queries.size()];
    tickets.push_back(engine.submit(query, half_threshold(query)));
  }
  engine.start();
  for (Ticket& ticket : tickets) ASSERT_TRUE(ticket.wait().has_value());

  const EngineStats stats = engine.stats();
  EXPECT_GT(stats.coalesced_batches, 0u);
  EXPECT_GT(stats.batch_occupancy(), 1.0);
  EXPECT_LE(stats.largest_batch, config.max_coalesce);
}


// --- the engine's scan pool --------------------------------------------
//
// Served scans split over one engine-owned pool once the strand holds a
// whole tile per pool thread.  A small tile makes a test-sized reference
// split; the hits must not move, whether a request runs alone (the pool
// reaches the backend's own scan) or coalesced (the pool reaches the
// batch precompute), on either backend and through the shard router.

constexpr std::size_t kPoolTile = 4096;

struct PoolCase {
  const char* name;
  BackendKind backend;
  std::size_t shards;
  bool flips;
};

EngineConfig pool_config(const PoolCase& c) {
  EngineConfig config;
  config.backend = c.backend;
  config.shard.shard_count = c.shards;
  config.workers = 1;
  config.autostart = false;  // the first claim takes the whole burst
  config.host.tile.tile_positions = kPoolTile;
  config.host.search_both_strands = true;
  config.host.device_batch.pe_count = 2;
  if (c.flips) {
    config.host.fault.flip_rate = 3e-4;
    config.host.fault.seed = 0x9001;
  }
  return config;
}

void expect_served_hits_are_golden(std::size_t bases, std::uint64_t seed) {
  util::Xoshiro256 rng{seed};
  const NucleotideSequence ref = bio::random_dna(bases, rng);
  const NucleotideSequence rc = ref.reverse_complement();
  const std::vector<ProteinSequence> queries = make_queries(6, rng);
  std::vector<std::vector<Hit>> golden_fwd, golden_rev;
  for (const ProteinSequence& query : queries) {
    const CompiledQueryPtr compiled = compile_query(query);
    golden_fwd.push_back(
        golden_hits(compiled->elements, ref, half_threshold(query)));
    std::vector<Hit> rev;
    for (const Hit& hit :
         golden_hits(compiled->elements, rc, half_threshold(query)))
      rev.push_back(Hit{bases - hit.position - compiled->size(), hit.score});
    std::sort(rev.begin(), rev.end());
    golden_rev.push_back(std::move(rev));
  }

  const std::size_t cpus = util::available_cpus();
  for (const PoolCase& c : {PoolCase{"tiled", BackendKind::Tiled, 1, false},
                            PoolCase{"hwsim", BackendKind::HwSim, 1, true},
                            PoolCase{"hwsim-2-shards", BackendKind::HwSim, 2,
                                     false}}) {
    const EngineConfig config = pool_config(c);
    Engine sync{config};
    sync.upload_reference(NucleotideSequence{ref});
    Engine engine{config};
    engine.upload_reference(NucleotideSequence{ref});

    // One coalesced batch, then every query again as a lone request.
    std::vector<Ticket> burst;
    for (const ProteinSequence& query : queries)
      burst.push_back(engine.submit(query, half_threshold(query)));
    engine.start();
    for (std::size_t round = 0; round < 2; ++round) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const Expected<HostRunReport> served =
            round == 0
                ? burst[i].wait()
                : engine.submit(queries[i], half_threshold(queries[i])).wait();
        const Expected<HostRunReport> alone =
            sync.align_sync(queries[i], half_threshold(queries[i]));
        ASSERT_TRUE(served.has_value()) << c.name << " query " << i;
        ASSERT_TRUE(alone.has_value()) << c.name << " query " << i;
        EXPECT_EQ(served->hits, golden_fwd[i])
            << c.name << " round " << round << " query " << i;
        EXPECT_EQ(served->reverse_hits, golden_rev[i])
            << c.name << " round " << round << " query " << i;
        EXPECT_EQ(alone->hits, served->hits) << c.name << " query " << i;
        EXPECT_EQ(alone->reverse_hits, served->reverse_hits)
            << c.name << " query " << i;
      }
    }

    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.coalesced_batches, 1u) << c.name;
    EXPECT_EQ(stats.largest_batch, queries.size()) << c.name;
    EXPECT_EQ(stats.batches_executed, 1 + queries.size()) << c.name;
    EXPECT_EQ(stats.scan_threads, cpus > 1 ? cpus : 0) << c.name;
  }
}

TEST(Engine, PooledScansServeGoldenHits) {
  // Three whole tiles per pool thread: every served scan splits.
  expect_served_hits_are_golden(
      kPoolTile * std::max<std::size_t>(2, util::available_cpus()) * 3, 941);
}

TEST(Engine, ScansBelowTheSplitFloorServeGoldenHits) {
  // Half a tile per pool thread: every served scan stays serial.
  expect_served_hits_are_golden(
      kPoolTile * std::max<std::size_t>(2, util::available_cpus()) / 2, 943);
}

// What one request's completion hook saw.  The hook reads the ticket
// through `ticket`, published under `m` once submit() returns; a hook that
// fires inside submit() (a refusal) finds it unset, and the submitter
// checks ready() right after publishing instead.
struct SettleWatch {
  std::mutex m;
  const Ticket* ticket = nullptr;
  int fires = 0;
  bool ready_at_fire = true;
};

// Settle-hook lifecycle under seeded random interleavings of submit
// (default, swapped and unknown databases; a quota-capped tenant; a small
// queue; deadlines that expire at claim or at dispatch), cancel,
// SwapDatabase, a late start() and engine destruction with work queued.
// Every ticket's hook fires exactly once with the outcome already set,
// and at each quiescent point the engine counters balance against the
// outcomes the tickets hand back.  Run under tsan by the check.sh engine
// leg.
TEST(Engine, SettleHookFiresOnceAfterEveryOutcome) {
  std::map<ErrorCode, std::size_t> seen;  // over all seeds; None = value
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Xoshiro256 rng{0x5E771E + seed};
    const std::vector<ProteinSequence> queries = make_queries(4, rng);
    EngineConfig config;
    config.workers = 1 + seed % 2;
    config.queue_capacity = 6;
    config.max_coalesce = 3;
    config.autostart = false;
    config.tenants = {{"capped", 1.0, 2}};

    std::deque<SettleWatch> watches;  // stable addresses for the hooks
    std::deque<Ticket> tickets;       // tickets[i] is watched by watches[i]
    auto engine = std::make_unique<Engine>(config);
    engine->upload_reference(bio::random_dna(60000, rng));
    engine->upload_database("alt", bio::random_dna(2000, rng));
    bool started = false;

    const auto submit = [&] {
      SettleWatch& watch = watches.emplace_back();
      RequestOptions options;
      const std::uint64_t route = rng.next() % 8;
      if (route == 0) options.database = "alt";
      if (route == 1) options.database = "missing";
      if (rng.next() % 3 == 0) options.tenant = "capped";
      const std::uint64_t budget = rng.next() % 4;
      if (budget == 0) options.timeout_s = 1e-6;  // expires at claim
      // 0.1-0.4 ms, about one default-database batch: some of these
      // expire while their claimed batch waits for the execution lock.
      if (budget == 1)
        options.timeout_s = 1e-4 * static_cast<double>(1 + rng.next() % 4);
      options.on_settle = [&watch] {
        std::lock_guard lock{watch.m};
        ++watch.fires;
        if (watch.ticket != nullptr && !watch.ticket->ready())
          watch.ready_at_fire = false;
      };
      const ProteinSequence& query = queries[rng.next() % queries.size()];
      Ticket& ticket = tickets.emplace_back(
          engine->submit(query, half_threshold(query), options));
      std::lock_guard lock{watch.m};
      watch.ticket = &ticket;
      if (watch.fires > 0 && !ticket.ready()) watch.ready_at_fire = false;
    };

    for (int op = 0; op < 40; ++op) {
      const std::uint64_t pick = rng.next() % 10;
      if (pick < 6) {
        submit();
      } else if (pick == 6 && !tickets.empty()) {
        tickets[rng.next() % tickets.size()].cancel();
      } else if (pick == 7) {
        if (rng.next() % 2 == 0)
          engine->upload_database("alt", bio::random_dna(2000, rng));
        else
          engine->upload_reference(bio::random_dna(60000, rng));
      } else if (pick == 8 && !started && seed % 4 != 0) {
        engine->start();
        started = true;
      } else if (pick == 9) {
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
      }
    }

    // Quiesce: a started engine settles everything; an unstarted one
    // settles only on the submitting/cancelling thread, so the rest stay
    // queued for the destructor.
    const auto fired = [](SettleWatch& watch) {
      std::lock_guard lock{watch.m};
      return watch.fires;
    };
    if (started) {
      const auto give_up = std::chrono::steady_clock::now() +
                           std::chrono::seconds{60};
      for (SettleWatch& watch : watches)
        while (fired(watch) == 0 &&
               std::chrono::steady_clock::now() < give_up)
          std::this_thread::sleep_for(std::chrono::microseconds{200});
    }

    const EngineStats stats = engine->stats();
    std::map<ErrorCode, std::size_t> outcomes;
    std::size_t queued = 0;
    std::vector<bool> consumed(tickets.size(), false);
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      if (fired(watches[i]) == 0) {
        ++queued;
        continue;
      }
      const Expected<HostRunReport> outcome = tickets[i].wait();
      ++outcomes[outcome ? ErrorCode::None : outcome.error().code];
      consumed[i] = true;
    }
    if (started) {
      EXPECT_EQ(queued, 0u);
    }
    // UnknownDatabase is refused before admission: counted failed, never
    // submitted.  QueueFull/TenantQuotaExceeded are counted rejected.
    EXPECT_EQ(stats.submitted + outcomes[ErrorCode::UnknownDatabase],
              stats.completed + stats.failed + stats.cancelled +
                  stats.expired + queued);
    EXPECT_EQ(stats.rejected, outcomes[ErrorCode::QueueFull] +
                                  outcomes[ErrorCode::TenantQuotaExceeded]);
    EXPECT_EQ(stats.completed, outcomes[ErrorCode::None]);
    EXPECT_EQ(stats.cancelled, outcomes[ErrorCode::Cancelled]);
    EXPECT_EQ(stats.expired, outcomes[ErrorCode::DeadlineExceeded]);

    // Destruction with work queued: an unstarted engine still holds its
    // backlog; a started one gets a fresh burst it cannot finish first.
    if (started)
      for (int i = 0; i < 5; ++i) submit();
    engine.reset();

    for (std::size_t i = 0; i < tickets.size(); ++i) {
      SettleWatch& watch = watches[i];
      {
        std::lock_guard lock{watch.m};
        EXPECT_EQ(watch.fires, 1) << "ticket " << i;
        EXPECT_TRUE(watch.ready_at_fire) << "ticket " << i;
      }
      EXPECT_FALSE(tickets[i].cancel());  // settled: nothing left to win
      if (i < consumed.size() && consumed[i]) continue;
      EXPECT_TRUE(tickets[i].ready());
      const Expected<HostRunReport> outcome = tickets[i].wait();
      const ErrorCode code = outcome ? ErrorCode::None : outcome.error().code;
      if (!started) {
        EXPECT_EQ(code, ErrorCode::ShuttingDown) << "ticket " << i;
      }
      ++outcomes[code];
    }
    for (const auto& [code, count] : outcomes) seen[code] += count;
  }
  // Every settle site ran somewhere in the sweep (the seeds are fixed and
  // these outcomes do not depend on thread timing).
  for (ErrorCode code :
       {ErrorCode::None, ErrorCode::Cancelled, ErrorCode::DeadlineExceeded,
        ErrorCode::QueueFull, ErrorCode::TenantQuotaExceeded,
        ErrorCode::UnknownDatabase, ErrorCode::ShuttingDown})
    EXPECT_GT(seen[code], 0u) << "no outcome " << static_cast<int>(code);
}

}  // namespace
}  // namespace fabp::core
