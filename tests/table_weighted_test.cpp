/// Weighted-membership suite: the v2 join(server, weight) contract.
///
/// Correctness: weight accessors round-trip, unweighted algorithms
/// reject non-unit weights, weight 1 is the default everywhere.
///
/// Statistics: a Pearson χ² comparison shows each weighted algorithm
/// skews load *proportionally* to weight — the observed per-server
/// counts must fit the weight-proportional expectation far better than
/// the uniform expectation, and for the natively weighted algorithm
/// (weighted-rendezvous, where P[s wins] is exactly proportional) the
/// fit must also pass an absolute χ² goodness-of-fit bar.
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/factory.hpp"
#include "hashing/splitmix_hash.hpp"
#include "stats/chi_squared.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace hdhash {
namespace {

table_options fast_options() {
  table_options options;
  options.hd.dimension = 2048;
  options.hd.capacity = 512;
  options.maglev_table_size = 4099;
  return options;
}

struct weighted_member {
  server_id server;
  double weight;
};

/// Routes `requests` pseudo-random ids and returns per-member counts in
/// pool order.
std::vector<std::uint64_t> measure_loads(const dynamic_table& table,
                                         const std::vector<weighted_member>& pool,
                                         std::size_t requests,
                                         std::uint64_t seed) {
  std::vector<request_id> block;
  block.reserve(requests);
  xoshiro256 rng(seed);
  for (std::size_t i = 0; i < requests; ++i) {
    block.push_back(splitmix_hash::mix(rng()));
  }
  const std::vector<server_id> answers = table.lookup_batch(block);
  std::map<server_id, std::uint64_t> counts;
  for (const server_id s : answers) {
    ++counts[s];
  }
  std::vector<std::uint64_t> loads;
  loads.reserve(pool.size());
  for (const weighted_member& m : pool) {
    loads.push_back(counts[m.server]);
  }
  return loads;
}

/// Pearson χ² of observed loads against expectations proportional to
/// `shares` (normalized internally).
double chi_squared_against(const std::vector<std::uint64_t>& loads,
                           const std::vector<double>& shares) {
  double total_load = 0.0;
  double total_share = 0.0;
  for (const std::uint64_t c : loads) {
    total_load += static_cast<double>(c);
  }
  for (const double s : shares) {
    total_share += s;
  }
  double chi = 0.0;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const double expected = total_load * shares[i] / total_share;
    const double diff = static_cast<double>(loads[i]) - expected;
    chi += diff * diff / expected;
  }
  return chi;
}

/// The proportionality assertion shared by the weighted algorithms:
/// the weight-proportional model must explain the observed loads far
/// better than the uniform model, and every weight class must receive
/// more load than the next lighter one.
void expect_proportional_loads(std::string_view algorithm,
                               const std::vector<weighted_member>& pool,
                               const std::vector<std::uint64_t>& loads,
                               double fit_ratio) {
  std::vector<double> weighted_shares;
  std::vector<double> uniform_shares(pool.size(), 1.0);
  for (const weighted_member& m : pool) {
    weighted_shares.push_back(m.weight);
  }
  const double chi_weighted = chi_squared_against(loads, weighted_shares);
  const double chi_uniform = chi_squared_against(loads, uniform_shares);
  EXPECT_LT(chi_weighted * fit_ratio, chi_uniform)
      << algorithm << ": weighted fit " << chi_weighted << " vs uniform "
      << chi_uniform;

  // Aggregate per weight class: heavier classes must carry more load
  // per member.
  std::map<double, std::pair<double, double>> per_class;  // weight -> (load, n)
  for (std::size_t i = 0; i < pool.size(); ++i) {
    per_class[pool[i].weight].first += static_cast<double>(loads[i]);
    per_class[pool[i].weight].second += 1.0;
  }
  double previous_mean = 0.0;
  for (const auto& [weight, load_n] : per_class) {
    const double mean = load_n.first / load_n.second;
    EXPECT_GT(mean, previous_mean)
        << algorithm << ": weight class " << weight
        << " carries less load per member than a lighter class";
    previous_mean = mean;
  }
}

void expect_proportional_skew(std::string_view algorithm,
                              const dynamic_table& table,
                              const std::vector<weighted_member>& pool,
                              std::size_t requests, double fit_ratio) {
  expect_proportional_loads(algorithm, pool,
                            measure_loads(table, pool, requests, 0x5eed),
                            fit_ratio);
}

TEST(WeightedMembershipTest, UnweightedAlgorithmsRequireUnitWeight) {
  for (const auto algorithm :
       {"modular", "rendezvous", "bounded", "jump", "maglev"}) {
    auto table = make_table(algorithm, fast_options());
    EXPECT_THROW(table->join(1, 2.0), precondition_error) << algorithm;
    table->join(1);  // weight defaults to 1 and is accepted
    EXPECT_EQ(table->weight(1), 1.0) << algorithm;
    EXPECT_THROW(table->weight(2), precondition_error) << algorithm;
  }
}

TEST(WeightedMembershipTest, WeightedAlgorithmsRoundTripWeights) {
  for (const auto algorithm :
       {"consistent", "weighted-rendezvous", "hd", "hd-hierarchical"}) {
    auto table = make_table(algorithm, fast_options());
    table->join(10, 2.0);
    table->join(20);  // default weight
    EXPECT_EQ(table->weight(10), 2.0) << algorithm;
    EXPECT_EQ(table->weight(20), 1.0) << algorithm;
    EXPECT_THROW(table->weight(30), precondition_error) << algorithm;
    EXPECT_THROW(table->join(10, 3.0), precondition_error) << algorithm;
    EXPECT_THROW(table->join(30, -1.0), precondition_error) << algorithm;
    table->leave(10);
    EXPECT_THROW(table->weight(10), precondition_error) << algorithm;
    EXPECT_EQ(table->server_count(), 1u) << algorithm;
  }
}

TEST(WeightedMembershipTest, HdWeightReportsEffectiveReplication) {
  // hd replicates round(weight) circle slots; weight() must report that
  // effective replication, not the raw request — weights 1.0 and 1.4
  // build identical tables and must be indistinguishable, and the
  // chi-squared expectation built from weight() must match the share
  // the member actually serves.
  for (const auto algorithm : {"hd", "hd-hierarchical"}) {
    auto table = make_table(algorithm, fast_options());
    table->join(10, 1.4);   // rounds down to 1 replica
    table->join(20, 2.5);   // llround: 3 replicas (round half away)
    table->join(30, 0.2);   // clamps to the 1-replica minimum
    EXPECT_EQ(table->weight(10), 1.0) << algorithm;
    EXPECT_EQ(table->weight(20), 3.0) << algorithm;
    EXPECT_EQ(table->weight(30), 1.0) << algorithm;
  }
}

TEST(WeightedMembershipTest, ConsistentWeightReportsRingResolution) {
  // Ring-point multiplicity realizes weights at a resolution of
  // 1/virtual_nodes; weight() reports what the ring actually serves.
  auto coarse = make_table("consistent", fast_options());  // 1 vnode
  coarse->join(10, 1.4);  // rounds to 1 ring point
  coarse->join(20, 2.0);
  EXPECT_EQ(coarse->weight(10), 1.0);
  EXPECT_EQ(coarse->weight(20), 2.0);

  table_options options = fast_options();
  options.consistent_vnodes = 10;
  auto fine = make_table("consistent", options);
  fine->join(10, 1.4);   // 14 ring points — exactly representable
  fine->join(20, 1.44);  // rounds to 14 points too
  EXPECT_DOUBLE_EQ(fine->weight(10), 1.4);
  EXPECT_DOUBLE_EQ(fine->weight(20), 1.4);
}

TEST(WeightedMembershipTest, HdFractionalWeightsBuildIdenticalTables) {
  auto exact = make_table("hd", fast_options());
  auto fractional = make_table("hd", fast_options());
  for (server_id s = 1; s <= 10; ++s) {
    exact->join(s * 271, 2.0);
    fractional->join(s * 271, 2.4);  // same round(w) == same replication
  }
  // Identical replication must mean identical reported weights, memory
  // footprint and assignments.
  EXPECT_EQ(exact->stats().memory_bytes, fractional->stats().memory_bytes);
  for (server_id s = 1; s <= 10; ++s) {
    EXPECT_EQ(exact->weight(s * 271), fractional->weight(s * 271));
  }
  for (request_id r = 0; r < 1000; ++r) {
    EXPECT_EQ(exact->lookup(r), fractional->lookup(r));
  }
}

TEST(WeightedMembershipTest, RunawayWeightsAreRejectedWhereTheyReplicate) {
  // Weight translates into physical replication for consistent (ring
  // points) and hd (circle slots); both must refuse weights whose
  // replication would exhaust memory instead of hanging.
  table_options options = fast_options();
  options.consistent_vnodes = 64;
  auto ring = make_table("consistent", options);
  EXPECT_THROW(ring->join(1, 1e12), precondition_error);
  auto hd = make_table("hd", options);
  EXPECT_THROW(hd->join(1, 1e12), precondition_error);
}

TEST(WeightedMembershipTest, WeightOneMatchesLegacyUnweightedBehaviour) {
  // join(s) and join(s, 1.0) must be indistinguishable — existing
  // deployments upgrading to v2 see identical assignments.
  for (const auto algorithm : {"consistent", "hd", "weighted-rendezvous"}) {
    auto legacy = make_table(algorithm, fast_options());
    auto weighted = make_table(algorithm, fast_options());
    for (server_id s = 1; s <= 12; ++s) {
      legacy->join(s * 97);
      weighted->join(s * 97, 1.0);
    }
    for (request_id r = 0; r < 500; ++r) {
      EXPECT_EQ(legacy->lookup(r), weighted->lookup(r)) << algorithm;
    }
  }
}

TEST(WeightedMembershipTest, WeightedRendezvousSkewsProportionally) {
  // Native weighting: P[s wins] is exactly w_s / Σw, so the observed
  // loads must pass an absolute χ² goodness-of-fit test against the
  // proportional expectation, not just a relative comparison.
  auto table = make_table("weighted-rendezvous", fast_options());
  const std::vector<weighted_member> pool = {
      {1, 1.0}, {2, 1.0}, {3, 2.0}, {4, 2.0},
      {5, 3.0}, {6, 3.0}, {7, 4.0}, {8, 4.0}};
  for (const weighted_member& m : pool) {
    table->join(m.server, m.weight);
  }
  const std::size_t requests = 40'000;
  const auto loads = measure_loads(*table, pool, requests, 0x5eed);
  std::vector<double> shares;
  for (const weighted_member& m : pool) {
    shares.push_back(m.weight);
  }
  const double chi = chi_squared_against(loads, shares);
  const double dof = static_cast<double>(pool.size() - 1);
  // The proportional model must not be rejected even at a generous
  // significance level.
  EXPECT_GT(chi_squared_survival(chi, dof), 1e-4) << "chi2 = " << chi;
  expect_proportional_skew("weighted-rendezvous", *table, pool, requests,
                           4.0);
}

TEST(WeightedMembershipTest, ConsistentSkewsProportionally) {
  // Ring-point multiplicity: resolution is one ring point, so give the
  // ring enough virtual nodes that arc variance stays well under the
  // weight signal.
  table_options options = fast_options();
  options.consistent_vnodes = 200;
  auto table = make_table("consistent", options);
  const std::vector<weighted_member> pool = {
      {1, 1.0}, {2, 1.0}, {3, 2.0}, {4, 2.0}, {5, 3.0}, {6, 3.0}};
  for (const weighted_member& m : pool) {
    table->join(m.server, m.weight);
  }
  expect_proportional_skew("consistent", *table, pool, 60'000, 4.0);
}

TEST(WeightedMembershipTest, HdSkewsProportionally) {
  // Circle-slot replication: a weight-w member stores round(w) rows, so
  // its share is w rows' worth of circle arcs.  A single row's arc has
  // the variance of 1-vnode consistent hashing, so the statistic
  // aggregates over several independent circle constructions (varying
  // the table seed) before testing proportionality — cheap through the
  // batch path, which decodes each circle slot at most once per run.
  std::vector<weighted_member> pool;
  server_id next = 1;
  for (int i = 0; i < 6; ++i) {
    pool.push_back(weighted_member{next++ * 131, 1.0});
  }
  for (int i = 0; i < 6; ++i) {
    pool.push_back(weighted_member{next++ * 131, 3.0});
  }
  std::vector<std::uint64_t> aggregated(pool.size(), 0);
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    table_options options;
    options.hd.dimension = 1024;
    options.hd.capacity = 256;
    options.hd.seed = 0x9D0C'AB1E + trial;
    auto table = make_table("hd", options);
    for (const weighted_member& m : pool) {
      table->join(m.server, m.weight);
    }
    const auto loads = measure_loads(*table, pool, 20'000, 0x5eed + trial);
    for (std::size_t i = 0; i < loads.size(); ++i) {
      aggregated[i] += loads[i];
    }
  }
  expect_proportional_loads("hd", pool, aggregated, 2.0);
}

}  // namespace
}  // namespace hdhash
