// A full ARES deployment: a pool of ARES server processes, reader/writer
// clients and reconfigurer clients, plus helpers to mint new configuration
// specs drawn from the server pool — the harness for every reconfiguration
// experiment.
#pragma once

#include "api/ares_store.hpp"
#include "ares/client.hpp"
#include "ares/server.hpp"
#include "arestreas/direct_client.hpp"
#include "checker/atomicity.hpp"
#include "checker/history.hpp"
#include "dap/config.hpp"
#include "harness/workload.hpp"
#include "placement/policy.hpp"
#include "sim/network.hpp"
#include "storage/device.hpp"
#include "sim/simulator.hpp"

#include <map>
#include <memory>
#include <vector>

namespace ares::harness {

struct AresClusterOptions {
  /// Total server processes available (configurations draw members from
  /// this pool).
  std::size_t server_pool = 12;

  /// Initial configuration c0.
  dap::Protocol initial_protocol = dap::Protocol::kTreas;
  std::size_t initial_servers = 5;  // first N of the pool
  std::size_t initial_k = 3;
  std::size_t delta = 4;

  std::size_t num_rw_clients = 2;
  std::size_t num_reconfigurers = 1;

  /// Atomic objects hosted by the deployment. All objects start in c0;
  /// each can be reconfigured independently afterwards (per-object cseq).
  std::size_t num_objects = 1;

  /// Reconfigurers use the Section-5 direct state transfer when true.
  bool direct_transfer = false;

  /// Steady-state fast path on every client (piggybacked config discovery +
  /// semifast reads; see reconfig::AresClient::set_fast_path). `semifast`
  /// additionally controls the confirmed-tag machinery in every
  /// configuration spec the cluster mints. Both false = the paper's exact
  /// round structure (benchmark baseline).
  bool fast_path = true;
  bool semifast = true;

  /// Per-object read leases in every configuration spec the cluster mints
  /// (0 = off): lease-holding clients serve reads entirely locally — zero
  /// quorum rounds — until a writer settles the window per `lease_policy`
  /// or a reconfiguration revokes it. `lease_epsilon` is the clock-skew
  /// bound ε every client subtracts from its grant windows.
  SimDuration lease_ms = 0;
  dap::LeasePolicy lease_policy = dap::LeasePolicy::kInvalidate;
  SimDuration lease_epsilon = 0;

  /// Adaptive per-object lease windows in every spec the cluster mints:
  /// servers scale each object's grant window by its observed read/write
  /// mix (see dap::ConfigSpec::lease_adaptive).
  bool lease_adaptive = false;

  SimDuration min_delay = 10;  // d
  SimDuration max_delay = 40;  // D
  std::uint64_t seed = 1;
  SimDuration treas_retry_timeout = 0;

  /// Per-server write-ahead persistence: every server journals mutations to
  /// an in-memory device that survives crash/restart. restart_server then
  /// replays the journal — an intact chain lets the server rejoin with
  /// memory (serving its pre-crash configurations immediately) instead of
  /// amnesiac. LDR-protocol configurations are never journaled (directory
  /// state has no record shape) and stay fenced either way; a torn/broken
  /// chain falls back to full amnesia fencing.
  bool wal = false;

  /// Config-lineage GC on every read/write client and reconfigurer: after
  /// a finalize quorum acks, the reconfigurer retires superseded
  /// configurations' server-side state (see AresClient::set_config_gc).
  bool config_gc = false;
};

class AresCluster {
 public:
  explicit AresCluster(AresClusterOptions options);

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] sim::Network& net() { return net_; }
  [[nodiscard]] dap::ConfigRegistry& registry() { return registry_; }
  [[nodiscard]] checker::HistoryRecorder& history() { return history_; }
  [[nodiscard]] ConfigId initial_config() const { return 0; }

  [[nodiscard]] std::vector<std::unique_ptr<reconfig::AresServer>>& servers() {
    return servers_;
  }
  [[nodiscard]] reconfig::AresClient& client(std::size_t i) {
    return *clients_[i];
  }
  [[nodiscard]] std::size_t num_clients() const { return clients_.size(); }
  [[nodiscard]] reconfig::AresClient& reconfigurer(std::size_t i) {
    return *reconfigurers_[i];
  }
  [[nodiscard]] std::size_t num_reconfigurers() const {
    return reconfigurers_.size();
  }

  /// Store adapters — the surface the workload driver, benches, examples
  /// and the placement Rebalancer program against.
  [[nodiscard]] api::AresStore& store(std::size_t i) { return *stores_[i]; }
  [[nodiscard]] api::AresStore& reconfigurer_store(std::size_t i) {
    return *reconfigurer_stores_[i];
  }

  /// All read/write-client stores, in client order (run_workload's input).
  [[nodiscard]] std::vector<api::Store*> stores() {
    std::vector<api::Store*> out;
    out.reserve(stores_.size());
    for (auto& s : stores_) out.push_back(s.get());
    return out;
  }

  /// Crash-stop pool server `i` (network-level: it stops receiving).
  void crash_server(std::size_t i);

  /// Restart pool server `i` after crash_server(i): the old process object
  /// is destroyed and a fresh one (empty volatile state) re-registers under
  /// the same ProcessId. Without `options().wal` the recovered server
  /// begins amnesiac for every configuration registered before the restart
  /// (it silently drops their messages — crash-stop semantics per old
  /// configuration) and rejoins service when a reconfiguration transfers
  /// state into a successor configuration listing it. With `wal` the
  /// journal is replayed first: an intact chain restores pre-crash state
  /// (only LDR-protocol configurations, which are never journaled, stay
  /// fenced); a broken chain degrades to the amnesiac path.
  void restart_server(std::size_t i);

  /// Server i's WAL backing device (options().wal only) — tests corrupt or
  /// wipe it between crash and restart to drive the torn-tail / broken-
  /// chain recovery paths.
  [[nodiscard]] storage::MemDevice& wal_device(std::size_t i) {
    return *wal_devices_.at(i);
  }

  /// Builds the spec of a fresh configuration: `n` servers starting at pool
  /// index `first_server` (wrapping), protocol/k as given. Does not
  /// register it — reconfig() does that.
  [[nodiscard]] dap::ConfigSpec make_spec(dap::Protocol protocol,
                                          std::size_t first_server,
                                          std::size_t n, std::size_t k);

  /// Total object-data bytes stored across the whole server pool.
  [[nodiscard]] std::size_t total_stored_bytes() const;

  /// The sharded-placement scenario: mints `num_shards` configurations,
  /// shard s covering `servers_per_shard` consecutive pool servers starting
  /// at pool index s * servers_per_shard (wrapping), registers them, and
  /// binds every object of the key-space [0, options().num_objects) to the
  /// shard `policy` chooses — on every read/write client and reconfigurer,
  /// so all processes agree on each object's initial configuration.
  /// Call before any operation; returns the shard configuration ids.
  std::vector<ConfigId> shard_objects(placement::PlacementPolicy& policy,
                                      std::size_t num_shards,
                                      std::size_t servers_per_shard,
                                      dap::Protocol protocol, std::size_t k);

  /// The configuration `obj`'s lineage was rooted in: its shard when
  /// shard_objects() placed it, initial_config() otherwise.
  [[nodiscard]] ConfigId placement_of(ObjectId obj) const {
    auto it = placement_.find(obj);
    return it == placement_.end() ? initial_config() : it->second;
  }

  /// The full object -> initial configuration map (empty until
  /// shard_objects() runs).
  [[nodiscard]] const std::map<ObjectId, ConfigId>& placement() const {
    return placement_;
  }

  /// The multi-object scenario: a concurrent workload over the key-space
  /// [0, options().num_objects) on every read/write client, with the key
  /// per operation drawn by `opt.key_distribution` (uniform or Zipfian).
  /// `opt.num_objects` is overridden by the cluster's option so workload
  /// and deployment always agree on the key-space.
  WorkloadResult run_multi_object_workload(WorkloadOptions opt);

  /// Per-object atomicity verdicts over everything recorded so far.
  /// Atomicity is a per-object property: one object's violation never
  /// taints another's verdict.
  [[nodiscard]] std::map<ObjectId, checker::CheckResult>
  check_atomicity_per_object() const {
    return checker::check_tag_atomicity_per_object(history_.records());
  }

  [[nodiscard]] const AresClusterOptions& options() const { return options_; }

 private:
  AresClusterOptions options_;
  sim::Simulator sim_;
  sim::Network net_;
  dap::ConfigRegistry registry_;
  checker::HistoryRecorder history_;
  std::vector<std::unique_ptr<reconfig::AresServer>> servers_;
  std::vector<std::shared_ptr<storage::MemDevice>> wal_devices_;
  std::vector<std::unique_ptr<reconfig::AresClient>> clients_;
  std::vector<std::unique_ptr<reconfig::AresClient>> reconfigurers_;
  std::vector<std::unique_ptr<api::AresStore>> stores_;
  std::vector<std::unique_ptr<api::AresStore>> reconfigurer_stores_;
  std::map<ObjectId, ConfigId> placement_;
  ConfigId next_config_id_ = 0;  // c0 is minted first (constructor)

 public:
  /// Next unused configuration id (monotonic; callers embed it in specs).
  [[nodiscard]] ConfigId allocate_config_id() { return next_config_id_++; }
};

}  // namespace ares::harness
