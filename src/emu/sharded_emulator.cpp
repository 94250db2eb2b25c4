#include "emu/sharded_emulator.hpp"

#include <chrono>
#include <exception>
#include <utility>

#include "emu/buffer_pool.hpp"
#include "emu/ingest.hpp"
#include "hashing/splitmix_hash.hpp"
#include "mem/hugepage_arena.hpp"
#include "util/require.hpp"

namespace hdhash {

namespace {

// The producer/worker hand-off runs on the M×N ingest mesh
// (emu/ingest.hpp): one bounded shard channel per (producer, shard)
// pair — lock-free SPSC rings by default — plus one buffer_pool per
// shard for the first-touch recycle round-trip.  The payload is the
// mode's batch type: a plain event vector (replicated) or an
// epoch-segmented request batch (snapshot).

/// One epoch's slice of a snapshot-mode batch: requests that arrived
/// under `snap` and must be resolved against exactly that table state.
/// With shadow oracles enabled, `shadow_snap` is the same epoch of the
/// pristine shadow publisher (null otherwise).
struct epoch_segment {
  std::shared_ptr<const table_snapshot> snap;
  std::shared_ptr<const table_snapshot> shadow_snap;
  std::vector<request_id> requests;
};

/// Snapshot-mode batch: up to buffer_capacity requests, segmented at
/// the membership epochs they arrived under.  Without churn this is a
/// single full-width segment — the undivided slot-dedup window the
/// replicated pipeline loses to broadcast membership events.
///
/// Segments are reused in place across recycles (only segments[0..used)
/// are live): reset() drops the snapshot references but keeps every
/// request vector's capacity, so a recycled batch refills without
/// reallocating — and without losing the first-touch placement of its
/// pages.
struct epoch_batch {
  std::vector<epoch_segment> segments;
  std::size_t used = 0;

  epoch_segment& append() {
    if (used == segments.size()) {
      segments.emplace_back();
    }
    return segments[used++];
  }
  epoch_segment* current() {
    return used == 0 ? nullptr : &segments[used - 1];
  }
  bool empty() const { return used == 0; }

  /// Releases epoch snapshots (so retired epochs free promptly) and
  /// clears requests, keeping all capacity for the next fill.
  void reset() {
    for (std::size_t i = 0; i < used; ++i) {
      segments[i].snap.reset();
      segments[i].shadow_snap.reset();
      segments[i].requests.clear();
    }
    used = 0;
  }
};

/// The epoch a request is bound to: the primary snapshot plus, with
/// shadow oracles on, the same epoch of the pristine shadow publisher.
struct epoch_pair {
  std::shared_ptr<const table_snapshot> snap;
  std::shared_ptr<const table_snapshot> shadow_snap;  // shadow mode only
};

/// Membership sequencing, shared by both producer schedules: applies
/// each join/leave to the primary and shadow publishers in lockstep, in
/// stream order, and binds every request to the epoch it arrives under.
/// current() is taken lazily on both publishers by the first request
/// after a membership event, so the published epochs — and each
/// request's epoch — are the same whichever schedule routes them.
class epoch_sequencer {
 public:
  epoch_sequencer(snapshot_publisher& primary, snapshot_publisher* shadow)
      : primary_(primary), shadow_(shadow) {}

  /// Applies one join or leave event to both publishers.
  void apply(const event& e) {
    if (e.kind == event_kind::join) {
      primary_.join(e.id, e.weight);
      if (shadow_ != nullptr) {
        shadow_->join(e.id, e.weight);
      }
      ++joins_;
    } else {
      primary_.leave(e.id);
      if (shadow_ != nullptr) {
        shadow_->leave(e.id);
      }
      ++leaves_;
    }
    // Drop the retired epoch now: its last holder should be whichever
    // batch still carries its requests.
    epoch_ = {};
  }

  /// The epoch the next request arrives under, published on first use
  /// (an empty pair marks a membership event no request has observed).
  const epoch_pair& bind() {
    if (epoch_.snap == nullptr) {
      // The shadow publisher sees the same membership sequence, so its
      // epochs advance in lockstep with the primary's.
      epoch_.snap = primary_.current();
      epoch_.shadow_snap = shadow_ != nullptr ? shadow_->current() : nullptr;
    }
    return epoch_;
  }

  /// Logical membership events applied (each stream event once).
  std::size_t joins() const noexcept { return joins_; }
  std::size_t leaves() const noexcept { return leaves_; }

 private:
  snapshot_publisher& primary_;
  snapshot_publisher* shadow_;
  epoch_pair epoch_;
  std::size_t joins_ = 0;
  std::size_t leaves_ = 0;
};

/// Resolves one epoch segment against its snapshot and accounts the
/// per-shard statistics; with a shadow snapshot present, each answer is
/// checked against the pristine oracle's for mismatch accounting.
/// `answers`/`truth` are reused across calls.
void answer_segment(const epoch_segment& segment, run_stats& stats,
                    timing_mode timing, std::vector<server_id>& answers,
                    std::vector<server_id>& truth) {
  if (segment.requests.empty()) {
    return;
  }
  const dynamic_table& table = segment.snap->table();
  answers.resize(segment.requests.size());
  if (timing != timing_mode::off) {
    const std::int64_t start = timing_now_ns(timing);
    table.lookup_batch(segment.requests, answers);
    stats.total_request_ns +=
        static_cast<double>(timing_now_ns(timing) - start);
  } else {
    table.lookup_batch(segment.requests, answers);
  }
  ++stats.batches;
  const dynamic_table* shadow =
      segment.shadow_snap ? &segment.shadow_snap->table() : nullptr;
  if (shadow != nullptr) {
    truth.resize(segment.requests.size());
    shadow->lookup_batch(segment.requests, truth);
  }
  for (std::size_t i = 0; i < segment.requests.size(); ++i) {
    ++stats.requests;
    ++stats.load[answers[i]];
    if (shadow != nullptr && answers[i] != truth[i]) {
      ++stats.mismatches;
      if (!shadow->contains(answers[i])) {
        ++stats.invalid_assignments;
      }
    }
  }
}

/// Runs one mesh pipeline generation on the pinned worker pool: a
/// first-touch pass (each shard worker allocates its buffer_pool's
/// recycled batches on its own thread, hence its own NUMA node), then
/// the decode loops on workers [0, shards), then the producers — on
/// the calling thread when `producers` == 1 (the historical shape), or
/// as pool jobs on workers [shards, shards + producers) otherwise —
/// then shutdown.  `make_recycled(shard)` builds one pre-touched empty
/// batch (and may touch other per-shard scratch); `decode(shard,
/// batch)` is the per-batch worker body; drained batches are reset via
/// `reset(batch)` and recycled; `produce(p, session, pools)` feeds
/// producer p's mesh row.  Each producer's session is closed on every
/// exit path (a producer that dies without closing would leave its
/// consumers waiting forever); worker exceptions are captured and
/// rethrown on the calling thread after shutdown (a faulted worker
/// keeps draining so producers never deadlock on a full channel).
template <typename Batch, typename MakeRecycled, typename Reset,
          typename Decode, typename Produce>
void run_mesh(runtime::worker_pool& pool, std::size_t shards,
              std::size_t producers, channel_kind kind, std::size_t depth,
              MakeRecycled&& make_recycled, Reset&& reset, Decode&& decode,
              Produce&& produce) {
  ingest_mesh<Batch> mesh(producers, shards, depth, kind);
  std::vector<buffer_pool<Batch>> pools(shards);
  std::vector<std::exception_ptr> errors(shards);

  // First-touch generation: enough buffers per shard that every
  // producer can hold one pending batch plus the channel-depth slack
  // before anyone falls back to a fresh (producer-touched) allocation.
  const std::size_t warm = producers + 2;
  for (std::size_t s = 0; s < shards; ++s) {
    pool.submit(s, [s, warm, &pools, &make_recycled] {
      for (std::size_t i = 0; i < warm; ++i) {
        pools[s].recycle(make_recycled(s));
      }
    });
  }
  pool.wait_idle();

  for (std::size_t s = 0; s < shards; ++s) {
    pool.submit(s, [s, &mesh, &pools, &errors, &decode, &reset] {
      shard_consumer<Batch> consumer = mesh.consumer(s);
      try {
        Batch batch;
        while (consumer.pop(batch)) {
          try {
            decode(s, batch);
          } catch (...) {
            if (!errors[s]) {
              errors[s] = std::current_exception();
            }
            // Keep looping so no producer ever blocks on a full
            // channel after a decode fault.
          }
          reset(batch);
          pools[s].recycle(std::move(batch));
          batch = Batch{};
        }
      } catch (...) {
        // reset/recycle themselves faulted (allocation failure): the
        // drain guarantee still has to hold, so swallow and keep
        // popping until every lane closes.
        if (!errors[s]) {
          errors[s] = std::current_exception();
        }
        Batch discard;
        while (consumer.pop(discard)) {
        }
      }
    });
  }

  auto run_producer = [&](std::size_t p) {
    ingest_session<Batch> session = mesh.session(p);
    try {
      produce(p, session, pools);
    } catch (...) {
      session.close();
      throw;
    }
    session.close();
  };

  if (producers == 1) {
    try {
      run_producer(0);
    } catch (...) {
      mesh.close();
      pool.wait_idle();
      throw;
    }
  } else {
    for (std::size_t p = 0; p < producers; ++p) {
      pool.submit(shards + p, [p, &run_producer] { run_producer(p); });
    }
  }
  // Producers all close their rows (even when faulting), so the decode
  // loops drain and exit; wait_idle rethrows the first producer-job
  // exception.
  pool.wait_idle();
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

/// Producer-side refill: reuse a worker-touched recycled buffer when
/// one is back, else allocate fresh (start-up, or the workers are
/// still holding the whole warm set).
template <typename Batch, typename MakeFresh>
Batch next_buffer(buffer_pool<Batch>& pool, MakeFresh&& make_fresh) {
  Batch batch;
  if (!pool.take(batch)) {
    batch = make_fresh();
  }
  return batch;
}

}  // namespace

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
  HDHASH_REQUIRE(
      config_.producers == 1 ||
          config_.membership == membership_mode::snapshot,
      "multi-producer ingest needs epoch-sequenced membership — "
      "replicated mode broadcasts in stream order and keeps one producer");
  // Shard decoders occupy pool workers [0, shards); with a fanned-out
  // producer side, the mesh producers take [shards, shards+producers),
  // placed by the same policy (so producers land on real CPUs after
  // the decode workers, not on top of them).
  const std::size_t pool_size =
      config_.shards + (config_.producers > 1 ? config_.producers : 0);
  pool_ = std::make_unique<runtime::worker_pool>(pool_size,
                                                 config_.placement);
  if (config_.membership == membership_mode::snapshot) {
    auto table = factory(0);
    HDHASH_REQUIRE(table != nullptr, "table factory returned null");
    publisher_ = std::make_unique<snapshot_publisher>(std::move(table),
                                                      mem::local_arena());
    return;
  }
  tables_.reserve(config_.shards);
  for (std::size_t shard = 0; shard < config_.shards; ++shard) {
    auto table = factory(shard);
    HDHASH_REQUIRE(table != nullptr, "table factory returned null");
    tables_.push_back(std::move(table));
  }
}

std::size_t sharded_emulator::shard_of(request_id request) const {
  return static_cast<std::size_t>(
      splitmix_hash::mix(request ^ config_.partition_seed) % config_.shards);
}

dynamic_table& sharded_emulator::table(std::size_t shard) {
  HDHASH_REQUIRE(shard < config_.shards, "shard index out of range");
  if (config_.membership == membership_mode::snapshot) {
    return publisher_->table();
  }
  return *tables_[shard];
}

sharded_report sharded_emulator::run(std::span<const event> events) {
  sharded_report report = config_.membership == membership_mode::snapshot
                              ? run_snapshot(events)
                              : run_replicated(events);
  report.placement = pool_->policy();
  report.channel = config_.channel;
  report.workers.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    report.workers.push_back(pool_->info(s));
  }
  if (config_.producers > 1) {
    report.producer_workers.reserve(config_.producers);
    for (std::size_t p = 0; p < config_.producers; ++p) {
      report.producer_workers.push_back(pool_->info(config_.shards + p));
    }
  }
  return report;
}

sharded_report sharded_emulator::run_replicated(std::span<const event> events) {
  using clock = std::chrono::steady_clock;
  const std::size_t shards = tables_.size();

  sharded_report report;
  report.per_shard.resize(shards);

  std::vector<std::unique_ptr<dynamic_table>> shadows(shards);
  if (config_.shadow) {
    for (std::size_t s = 0; s < shards; ++s) {
      shadows[s] = tables_[s]->clone();
    }
  }
  // Fault injection happens after the pristine clones, before any event.
  if (config_.corrupt) {
    for (std::size_t s = 0; s < shards; ++s) {
      config_.corrupt(*tables_[s], s);
    }
  }

  const auto start = clock::now();
  std::size_t logical_joins = 0;
  std::size_t logical_leaves = 0;
  const timing_mode timing =
      config_.timing ? timing_mode::thread_cpu : timing_mode::off;
  const std::size_t capacity = config_.buffer_capacity;
  run_mesh<std::vector<event>>(
      *pool_, shards, /*producers=*/1, config_.channel, config_.channel_depth,
      [capacity](std::size_t) {
        // resize-then-clear: writes every slot (first-touch on the
        // worker's node) and keeps the capacity for refills.
        std::vector<event> batch(capacity);
        batch.clear();
        return batch;
      },
      [](std::vector<event>& batch) { batch.clear(); },
      [&](std::size_t s, const std::vector<event>& batch) {
        // Shard service time is metered on the worker's own CPU clock
        // so preemption by sibling shards (oversubscribed machines)
        // does not count against this shard's decode rate.
        apply_event_batch(*tables_[s], shadows[s].get(), batch,
                          report.per_shard[s], timing);
      },
      [&](std::size_t, auto& session, auto& pools) {
        // Producer: partition requests, broadcast membership, hand over
        // each shard's batch as soon as it fills (the double-buffered
        // overlap).
        const auto fresh = [capacity] {
          std::vector<event> batch;
          batch.reserve(capacity);
          return batch;
        };
        std::vector<std::vector<event>> pending(shards);
        for (std::size_t s = 0; s < shards; ++s) {
          pending[s] = next_buffer(pools[s], fresh);
        }
        auto submit = [&](std::size_t s) {
          session.push(s, std::move(pending[s]));
          pending[s] = next_buffer(pools[s], fresh);
        };
        for (const event& e : events) {
          if (e.kind == event_kind::request) {
            const std::size_t s = shard_of(e.id);
            pending[s].push_back(e);
            if (pending[s].size() >= capacity) {
              submit(s);
            }
            continue;
          }
          (e.kind == event_kind::join ? logical_joins : logical_leaves) += 1;
          for (std::size_t s = 0; s < shards; ++s) {
            pending[s].push_back(e);
            if (pending[s].size() >= capacity) {
              submit(s);
            }
          }
        }
        for (std::size_t s = 0; s < shards; ++s) {
          if (!pending[s].empty()) {
            submit(s);
          }
        }
      });
  const auto stop = clock::now();

  report.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(stop - start)
          .count();
  report.merged = merge(report.per_shard);
  // Broadcast membership events are applied once per shard; report them
  // once each so the merged stats compare field-for-field with a
  // single-table reference run.
  report.merged.joins = logical_joins;
  report.merged.leaves = logical_leaves;
  for (const auto& table : tables_) {
    report.table_memory_bytes += table->stats().memory_bytes;
  }
  return report;
}

sharded_report sharded_emulator::run_snapshot(std::span<const event> events) {
  using clock = std::chrono::steady_clock;
  const std::size_t shards = config_.shards;
  const std::size_t producers = config_.producers;

  sharded_report report;
  report.per_shard.resize(shards);

  // Per-worker answer scratch, first-touched by its owner inside the
  // pipeline's init generation (the lookup_batch output is the hottest
  // repeatedly written buffer each worker owns).
  std::vector<std::vector<server_id>> answers(shards);
  std::vector<std::vector<server_id>> truth(shards);

  // Shadow oracle: a second publisher wrapping a pristine clone, taken
  // before the corrupt hook runs.  The clone copies on write, so later
  // corruption of the producer table (and the snapshots published from
  // it) never reaches the shadow's epochs.
  std::unique_ptr<snapshot_publisher> shadow_publisher;
  if (config_.shadow) {
    shadow_publisher = std::make_unique<snapshot_publisher>(
        publisher_->table().clone(), mem::local_arena());
  }
  if (config_.corrupt) {
    config_.corrupt(publisher_->table(), 0);
  }

  const auto start = clock::now();

  epoch_sequencer sequencer(*publisher_, shadow_publisher.get());
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
    epoch_pair epoch;
    std::size_t end = 0;  ///< one past the run's last request index
  };
  std::vector<request_id> requests;
  std::vector<epoch_run> runs;
  if (producers > 1) {
    requests.reserve(events.size());
    for (const event& e : events) {
      if (e.kind != event_kind::request) {
        sequencer.apply(e);
        continue;
      }
      const epoch_pair& epoch = sequencer.bind();
      if (runs.empty() || runs.back().epoch.snap != epoch.snap) {
        runs.push_back({epoch, requests.size()});
      }
      requests.push_back(e.id);
      runs.back().end = requests.size();
    }
  }
  const std::size_t total = requests.size();

  const timing_mode timing =
      config_.timing ? timing_mode::thread_cpu : timing_mode::off;
  const std::size_t capacity = config_.buffer_capacity;
  run_mesh<epoch_batch>(
      *pool_, shards, producers, config_.channel, config_.channel_depth,
      [capacity, &answers, &truth](std::size_t s) {
        // One pre-touched segment per recycled batch; under churn a
        // batch grows more segments on demand (reused in place after
        // the first recycle round-trip).  The worker's answer scratch
        // rides the same init generation (idempotent across the warm
        // calls) so the hottest repeatedly written buffer is local too.
        epoch_batch batch;
        batch.segments.emplace_back();
        batch.segments.back().requests.resize(capacity);
        batch.segments.back().requests.clear();
        answers[s].resize(capacity);
        answers[s].clear();
        truth[s].resize(capacity);
        truth[s].clear();
        return batch;
      },
      // Resetting a batch drops its epoch references, so the worker that
      // resets an epoch's last segment frees it.
      [](epoch_batch& batch) { batch.reset(); },
      [&](std::size_t s, const epoch_batch& batch) {
        for (std::size_t i = 0; i < batch.used; ++i) {
          answer_segment(batch.segments[i], report.per_shard[s], timing,
                         answers[s], truth[s]);
        }
      },
      [&](std::size_t p, auto& session, auto& pools) {
        const auto fresh = [] { return epoch_batch{}; };
        std::vector<epoch_batch> pending(shards);
        std::vector<std::size_t> pending_requests(shards, 0);
        for (std::size_t s = 0; s < shards; ++s) {
          pending[s] = next_buffer(pools[s], fresh);
        }
        // Each request joins its shard's pending batch in the segment of
        // its epoch — a new epoch opens a new segment, so churn never
        // truncates a batch, only subdivides it — and a full batch is
        // handed over at once.
        auto route = [&](request_id request, const epoch_pair& epoch) {
          const std::size_t s = shard_of(request);
          epoch_segment* segment = pending[s].current();
          if (segment == nullptr || segment->snap != epoch.snap) {
            segment = &pending[s].append();
            segment->snap = epoch.snap;
            segment->shadow_snap = epoch.shadow_snap;
          }
          segment->requests.push_back(request);
          if (++pending_requests[s] >= capacity) {
            session.push(s, std::move(pending[s]));
            pending[s] = next_buffer(pools[s], fresh);
            pending_requests[s] = 0;
          }
        };
        if (producers == 1) {
          // Single pass: apply each membership event, publish its epoch
          // on the next request and route that request at once, so the
          // shards decode while membership is still being applied.
          for (const event& e : events) {
            if (e.kind == event_kind::request) {
              route(e.id, sequencer.bind());
            } else {
              sequencer.apply(e);
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
            route(requests[i], runs[r].epoch);
          }
        }
        for (std::size_t s = 0; s < shards; ++s) {
          if (!pending[s].empty()) {
            session.push(s, std::move(pending[s]));
          }
        }
      });
  // The producers' references die with run_mesh's scopes; drop the
  // pre-scan's own before measuring memory, so only the publisher's
  // current epoch stays live.
  runs.clear();
  const auto stop = clock::now();

  report.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(stop - start)
          .count();
  report.merged = merge(report.per_shard);
  // Membership is applied once, by the sequencer; report it in the
  // merged stats so they compare field-for-field with a single-table
  // reference run.
  report.merged.joins = sequencer.joins();
  report.merged.leaves = sequencer.leaves();
  report.table_memory_bytes = publisher_->memory_bytes();
  if (shadow_publisher) {
    // The shadow's rows are COW-shared with the primary until the
    // corrupt hook un-shares them; memory_bytes() would count every
    // still-shared row once per publisher.  The shadow contributes only
    // its marginal (un-shared) residency — shared rows are reported
    // once, by the primary.
    report.table_memory_bytes += shadow_publisher->marginal_bytes();
  }
  report.snapshots_published = publisher_->published_epochs();
  return report;
}

}  // namespace hdhash
