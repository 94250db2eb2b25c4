#include "emu/sharded_emulator.hpp"

#include <chrono>
#include <utility>

#include "util/require.hpp"

namespace hdhash {

double sharded_report::aggregate_requests_per_second() const {
  double rate = 0.0;
  for (const run_stats& shard : per_shard) {
    if (shard.total_request_ns > 0.0) {
      rate += static_cast<double>(shard.requests) * 1e9 /
              shard.total_request_ns;
    }
  }
  return rate;
}

double sharded_report::wall_requests_per_second() const {
  return wall_seconds > 0.0
             ? static_cast<double>(merged.requests) / wall_seconds
             : 0.0;
}

sharded_emulator::sharded_emulator(table_factory factory,
                                   sharded_config config)
    : config_(config) {
  HDHASH_REQUIRE(config_.shards >= 1, "need at least one shard");
  HDHASH_REQUIRE(config_.producers >= 1, "need at least one producer");
  HDHASH_REQUIRE(config_.buffer_capacity >= 1,
                 "shard buffer capacity must be positive");
  HDHASH_REQUIRE(config_.channel_depth >= 1,
                 "channel depth must be positive");
  HDHASH_REQUIRE(factory != nullptr, "table factory must be callable");
  // Shard decoders occupy pool workers [0, shards); with a fanned-out
  // producer side, the mesh producers take [shards, shards+producers),
  // placed by the same policy (so producers land on real CPUs after
  // the decode workers, not on top of them).
  const std::size_t pool_size =
      config_.shards + (config_.producers > 1 ? config_.producers : 0);
  pool_ = std::make_unique<runtime::worker_pool>(pool_size,
                                                 config_.placement);
  auto table = factory(0);
  HDHASH_REQUIRE(table != nullptr, "table factory returned null");
  router_ = std::make_unique<stream_router>(
      std::move(table), *pool_, 0,
      stream_router::config{.shards = config_.shards,
                            .sessions = config_.producers,
                            .channel_depth = config_.channel_depth});
}

dynamic_table& sharded_emulator::table(std::size_t shard) {
  HDHASH_REQUIRE(shard < config_.shards, "shard index out of range");
  return router_->table();
}

sharded_report sharded_emulator::run(std::span<const event> events) {
  using clock = std::chrono::steady_clock;
  const std::size_t shards = config_.shards;
  const std::size_t producers = config_.producers;
  stream_router& router = *router_;

  // Shadow oracle: a second publisher wrapping a pristine clone, taken
  // before the corrupt hook runs.  The clone copies on write, so later
  // corruption of the router's table (and the snapshots published from
  // it) never reaches the shadow's epochs.
  std::unique_ptr<snapshot_publisher> shadow;
  if (config_.shadow) {
    shadow = std::make_unique<snapshot_publisher>(router.table().clone());
  }
  if (config_.corrupt) {
    config_.corrupt(router.table(), 0);
  }

  const auto start = clock::now();

  // Membership sequencing: each join/leave applies to the router and
  // the shadow in lockstep, in stream order; the first request after it
  // publishes the new epoch on both (an empty epoch marks an event no
  // request has observed yet), so both producer schedules bind every
  // request to the same epoch.
  struct epoch {
    std::shared_ptr<const table_snapshot> snap;
    std::shared_ptr<const table_snapshot> shadow_snap;
  };
  epoch current;
  std::size_t joins = 0;
  std::size_t leaves = 0;
  auto apply = [&](const event& e) {
    if (e.kind == event_kind::join) {
      router.join(e.id, e.weight);
      if (shadow) {
        shadow->join(e.id, e.weight);
      }
      ++joins;
    } else {
      router.leave(e.id);
      if (shadow) {
        shadow->leave(e.id);
      }
      ++leaves;
    }
    // Drop the retired epoch now: its last holder should be whichever
    // batch still carries its requests.
    current = {};
  };
  auto bind = [&]() -> const epoch& {
    if (current.snap == nullptr) {
      current.snap = router.current();
      current.shadow_snap = shadow ? shadow->current() : nullptr;
    }
    return current;
  };

  // Multi-producer pre-scan.  Producers on other threads can only start
  // a range once it is sequenced, so membership applies here first, in
  // stream order; requests flatten into one stream-ordered vector,
  // grouped into contiguous *runs* that share an epoch.  After the
  // scan, any request order is safe: every request is permanently bound
  // to the epoch it arrived under, and the load histogram is
  // order-insensitive — which is what lets M producers split the stream
  // by index range without touching the determinism guarantee.  A
  // single producer skips this and sequences inline (see below).
  struct epoch_run {
    epoch bound;
    std::size_t end = 0;  ///< one past the run's last request index
  };
  std::vector<request_id> requests;
  std::vector<epoch_run> runs;
  if (producers > 1) {
    requests.reserve(events.size());
    for (const event& e : events) {
      if (e.kind != event_kind::request) {
        apply(e);
        continue;
      }
      const epoch& bound = bind();
      if (runs.empty() || runs.back().bound.snap != bound.snap) {
        runs.push_back({bound, requests.size()});
      }
      requests.push_back(e.id);
      runs.back().end = requests.size();
    }
  }
  const std::size_t total = requests.size();

  // Producer p routes through session p: each request joins its
  // shard's open batch in the segment of its epoch — a new epoch opens a
  // new segment, so churn never truncates a batch, only subdivides it —
  // and a full batch is handed over at once.  The session's row closes
  // on every exit path, so the decode loops drain whatever happens here.
  const std::size_t capacity = config_.buffer_capacity;
  auto produce = [&](std::size_t p) {
    stream_router::session session = router.open_session(p);
    try {
      std::vector<std::size_t> filled(shards, 0);
      auto route = [&](request_id request, const epoch& bound) {
        const std::size_t s = router.shard_of(request);
        session.open_segment(s, bound.snap, bound.shadow_snap)
            .requests.push_back(request);
        if (++filled[s] >= capacity) {
          session.flush(s);
          filled[s] = 0;
        }
      };
      if (producers == 1) {
        // Single pass: apply each membership event, publish its epoch
        // on the next request and route that request at once, so the
        // shards decode while membership is still being applied.
        for (const event& e : events) {
          if (e.kind == event_kind::request) {
            route(e.id, bind());
          } else {
            apply(e);
          }
        }
      } else {
        // Producer p routes the contiguous request range
        // [p*total/M, (p+1)*total/M), walking the epoch runs that
        // overlap it.
        std::size_t r = 0;
        for (std::size_t i = total * p / producers;
             i < total * (p + 1) / producers; ++i) {
          while (runs[r].end <= i) {
            ++r;
          }
          route(requests[i], runs[r].bound);
        }
      }
      for (std::size_t s = 0; s < shards; ++s) {
        session.flush(s);
      }
    } catch (...) {
      session.close();
      throw;
    }
    session.close();
  };

  router.start();
  try {
    if (producers == 1) {
      produce(0);
    } else {
      for (std::size_t p = 0; p < producers; ++p) {
        pool_->submit(shards + p, [p, &produce] { produce(p); });
      }
      // Every producer closes its row, so the decode loops drain and
      // exit too; wait_idle rethrows the first producer fault.
      pool_->wait_idle();
    }
  } catch (...) {
    try {
      router.stop();
    } catch (...) {
      // The producer's fault is the one to report.
    }
    throw;
  }
  router.stop();
  sharded_report report;
  report.wall_seconds =
      std::chrono::duration<double>(clock::now() - start).count();
  // Drop the pre-scan's epoch references before measuring memory, so
  // only the publisher's current epoch stays live.
  runs.clear();
  report.per_shard.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    report.per_shard.push_back(router.shard_stats(s));
  }
  report.merged = merge(report.per_shard);
  // Membership is applied once, on the calling thread; report it in
  // the merged stats so they compare field-for-field with a single-table
  // reference run.
  report.merged.joins = joins;
  report.merged.leaves = leaves;
  report.table_memory_bytes = router.table_memory_bytes();
  if (shadow) {
    // The shadow's rows are COW-shared with the primary until the
    // corrupt hook un-shares them; memory_bytes() would count every
    // still-shared row once per publisher.  The shadow contributes only
    // its marginal (un-shared) residency — shared rows are reported
    // once, by the primary.
    report.table_memory_bytes += shadow->marginal_bytes();
  }
  report.snapshots_published = router.published_epochs();
  report.placement = pool_->policy();
  for (std::size_t w = 0; w < pool_->size(); ++w) {
    (w < shards ? report.workers : report.producer_workers)
        .push_back(pool_->info(w));
  }
  return report;
}

}  // namespace hdhash
