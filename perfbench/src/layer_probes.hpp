/// \file layer_probes.hpp
/// \brief The traced run's per-layer measurements.
///
/// Each probe calls one layer's public functions on the workload's own
/// inputs (its request ids, its answers, its table recipe and batch
/// shape) and records a span around every call; per_layer_metrics()
/// turns the spans into the per-layer metrics.  Probes run after the
/// workload's own threads have stopped, so they never compete with it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common.hpp"
#include "emu/event.hpp"
#include "traced_table.hpp"

namespace perfbench {

/// What the traced run measured on the workload itself.
struct traced_observations {
  double untraced_rps = 0.0;
  double traced_rps = 0.0;
  double requests_per_batch = 0.0;
  double client_lag_p99_us = 0.0;
  double shard_busy_frac = 0.0;
  /// Requests routed while the traced table wrapper was installed.
  std::uint64_t traced_requests = 0;
  const snapshot_census* census = nullptr;
};

/// The workload's shape, for the standalone probes.
struct probe_inputs {
  const table_recipe* recipe = nullptr;
  std::span<const hdhash::request_id> ids;
  std::span<const hdhash::server_id> answers;
  std::size_t shards = 1;
  std::size_t batch = 256;
  /// Membership events to replay through a snapshot_publisher; when
  /// empty the probe leaves and rejoins pool members instead.
  std::span<const hdhash::event> churn;
};

/// Runs every probe and appends all per-layer metrics to `out`.
void per_layer_metrics(const probe_inputs& inputs,
                       const traced_observations& observed, run_result& out);

}  // namespace perfbench
