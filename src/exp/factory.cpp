#include "exp/factory.hpp"

#include <algorithm>
#include <string>

#include "core/hierarchical.hpp"
#include "hashing/registry.hpp"
#include "table/bounded.hpp"
#include "table/consistent.hpp"
#include "table/jump.hpp"
#include "table/maglev.hpp"
#include "table/modular.hpp"
#include "table/rendezvous.hpp"
#include "table/weighted_rendezvous.hpp"
#include "util/require.hpp"

namespace hdhash {

namespace {

/// Throws precondition_error naming every valid algorithm unless `name`
/// is one of all_algorithms().
void require_known_algorithm(std::string_view name) {
  const auto known = all_algorithms();
  if (std::find(known.begin(), known.end(), name) != known.end()) {
    return;
  }
  std::string message = "unknown algorithm: ";
  message += name;
  message += " — valid algorithms:";
  for (const std::string_view algorithm : known) {
    message += ' ';
    message += algorithm;
  }
  throw precondition_error(message);
}

}  // namespace

std::unique_ptr<dynamic_table> make_table(std::string_view algorithm,
                                          const table_options& options) {
  require_known_algorithm(algorithm);
  const hash64& hash = hash_by_name(options.hash_name);
  if (algorithm == "modular") {
    return std::make_unique<modular_table>(hash, options.seed);
  }
  if (algorithm == "consistent") {
    return std::make_unique<consistent_table>(
        hash, options.consistent_vnodes, options.seed);
  }
  if (algorithm == "consistent-rank") {
    return std::make_unique<consistent_table>(
        hash, options.consistent_vnodes, options.seed,
        ring_lookup_mode::rank);
  }
  if (algorithm == "rendezvous") {
    return std::make_unique<rendezvous_table>(hash, options.seed);
  }
  if (algorithm == "weighted-rendezvous") {
    return std::make_unique<weighted_rendezvous_table>(hash, options.seed);
  }
  if (algorithm == "bounded") {
    return std::make_unique<bounded_consistent_table>(
        hash, options.bounded_balance_factor, options.consistent_vnodes,
        options.seed);
  }
  if (algorithm == "hd-hierarchical") {
    hierarchical_config config;
    config.groups = options.hierarchical_groups;
    config.shard = options.hd;
    // Each shard holds ~k/groups servers; a quarter of the flat circle
    // keeps the lattice step large while bounding shard memory.
    config.shard.capacity = std::max<std::size_t>(
        64, options.hd.capacity / options.hierarchical_groups * 2);
    config.router = options.hd;
    config.router.capacity = 4 * options.hierarchical_groups;
    return std::make_unique<hierarchical_hd_table>(hash, config);
  }
  if (algorithm == "jump") {
    return std::make_unique<jump_table>(hash, options.seed);
  }
  if (algorithm == "maglev") {
    return std::make_unique<maglev_table>(hash, options.maglev_table_size,
                                          options.seed);
  }
  // The name check above leaves "hd" as the only other algorithm.
  return std::make_unique<hd_table>(hash, options.hd);
}

std::vector<std::string_view> paper_algorithms() {
  return {"consistent", "rendezvous", "hd"};
}

std::vector<std::string_view> all_algorithms() {
  return {"modular", "consistent", "consistent-rank",
          "rendezvous", "weighted-rendezvous", "bounded",
          "jump", "maglev", "hd", "hd-hierarchical"};
}

bool algorithm_supports_weights(std::string_view algorithm) {
  require_known_algorithm(algorithm);
  return algorithm == "consistent" || algorithm == "consistent-rank" ||
         algorithm == "weighted-rendezvous" || algorithm == "hd" ||
         algorithm == "hd-hierarchical";
}

}  // namespace hdhash
