// The benchmark's workloads and the figures every workload derives from
// its operation log.
#pragma once

#include "common.hpp"
#include "trace.hpp"
#include "dap/config.hpp"

#include <string>
#include <vector>

namespace perfbench {

/// Iteration mix shared by all workloads: each iteration is a scalar
/// write with probability write_frac, a read batch of `batch` distinct
/// keys with probability batch_frac, and a scalar read otherwise.
struct Mix {
  std::size_t objects = 0;
  std::size_t value_size = 0;
  double write_frac = 0;
  double batch_frac = 0;
  std::size_t batch = 1;
};

/// A NetCluster deployment over localhost TCP driven by kTcpClients
/// closed-loop client threads for a wall-clock window.
struct TcpShape {
  ares::dap::Protocol protocol = ares::dap::Protocol::kAbd;
  std::size_t servers = 3;
  std::size_t k = 1;
  Mix mix;
};

inline constexpr std::size_t kTcpClients = 3;

Report run_tcp(const Args& args, const TcpShape& shape);

/// harness::AresCluster on the deterministic simulator, no sockets: rounds
/// of a fixed operation count on a fresh cluster, timed in wall clock. With
/// `reconfig`, one reconfigurer moves each object in turn between 5-server
/// ABD and TREAS [5,3] configurations drawn from an 8-server pool, with
/// config-lineage GC and the in-memory WAL on.
struct SimShape {
  ares::dap::Protocol protocol = ares::dap::Protocol::kAbd;
  std::size_t servers = 3;
  std::size_t k = 1;
  std::size_t clients = 3;
  std::size_t ops_per_client = 1000;  // per round
  bool reconfig = false;
  Mix mix;
};

Report run_sim(const Args& args, const SimShape& shape);

/// Figures of one phase of a run, from the operation log.
struct Summary {
  std::size_t ops = 0;  // object operations (batch members count singly)
  double ops_per_s = 0;
  double read_p50_us = 0, read_p90_us = 0, read_p99_us = 0;
  double write_p50_us = 0, write_p90_us = 0, write_p99_us = 0;
  double batch_p50_us = 0;
  // Means per operation of OpResult.metrics.
  double read_rounds = 0, write_rounds = 0, batch_rounds_per_member = 0;
  double read_msgs = 0, write_msgs = 0;
  double read_bytes = 0, write_bytes = 0;
  double elided_per_op = 0;
};

/// Summarizes the operations of `phase` that took `elapsed_s`.
Summary summarize(const std::vector<OpLog>& ops, Phase phase,
                  double elapsed_s);

/// Field by field median of `parts` (one Summary per time window or
/// round): a burst of load from other processes on the host moves the
/// windows it hits, not the median.
Summary median_of(const std::vector<Summary>& parts);

/// The end-to-end metrics of an untraced run.
void put_end_to_end(Report& r, const Summary& s, double setup_s);

/// The p99 latencies, reported with the per-layer metrics: on a shared
/// host they swing with other processes' load more than any bound allows.
void put_tail_latency(Report& r, const Summary& s);

/// The `ares.*` per-layer metrics (per-op protocol cost).
void put_protocol_costs(Report& r, const Summary& s);

/// Idle latency of one client with nothing else running: p50 of its reads
/// and writes in `phase`.
void put_idle_latency(Report& r, const std::vector<OpLog>& ops, Phase phase);

/// Mean span self time per traced operation inside the system (the api.*
/// spans) and in the benchmark's own loop (op, bench.* spans).
void put_self_times(Report& r, const std::vector<Span>& spans,
                    std::size_t ops);

/// Wire, codec and WAL unit costs at `mix`'s shapes (abd and/or treas).
void put_unit_costs(Report& r, const Mix& mix, bool abd, bool treas);

}  // namespace perfbench
