/// \file workloads.hpp
/// \brief The benchmark's workloads (see NOTES.md for why each exists).
#pragma once

#include "common.hpp"

namespace perfbench {

/// In-process net_server on loopback, driven by the single-thread
/// multiplexing client: a closed-loop phase (route_rps) then an
/// open-loop phase at a fixed offered rate (latency from due time).
run_result run_tcp_steady(const run_options& options);

/// sharded_emulator in snapshot mode under 1% membership churn.
run_result run_emu_churn(const run_options& options);

/// sharded_emulator over flat hd at d=10,000 with 512 servers, SEU
/// faults injected and the pristine shadow oracle on.
run_result run_emu_faults(const run_options& options);

}  // namespace perfbench
