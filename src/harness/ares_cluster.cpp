#include "harness/ares_cluster.hpp"

#include <cassert>

namespace ares::harness {

AresCluster::AresCluster(AresClusterOptions options)
    : options_(options),
      sim_(options.seed),
      net_(sim_, options.min_delay, options.max_delay) {
  assert(options_.initial_servers <= options_.server_pool);

  // Initial configuration c0 over the first servers of the pool. The id
  // counter starts at 0, so c0 takes id 0 and every later spec mints 1, 2...
  auto c0 = make_spec(options_.initial_protocol, 0, options_.initial_servers,
                      options_.initial_k);
  assert(c0.id == initial_config());
  registry_.register_config(std::move(c0));

  for (std::size_t i = 0; i < options_.server_pool; ++i) {
    servers_.push_back(std::make_unique<reconfig::AresServer>(
        sim_, net_, static_cast<ProcessId>(i), registry_));
    if (options_.wal) {
      wal_devices_.push_back(std::make_shared<storage::MemDevice>());
      servers_.back()->attach_journal(wal_devices_.back());
    }
  }

  ProcessId next_pid = static_cast<ProcessId>(options_.server_pool);
  for (std::size_t i = 0; i < options_.num_rw_clients; ++i) {
    clients_.push_back(std::make_unique<reconfig::AresClient>(
        sim_, net_, next_pid++, registry_, /*c0=*/0, &history_));
    clients_.back()->set_fast_path(options_.fast_path);
    clients_.back()->set_lease_epsilon(options_.lease_epsilon);
    clients_.back()->set_config_gc(options_.config_gc);
    stores_.push_back(std::make_unique<api::AresStore>(*clients_.back()));
  }
  for (std::size_t i = 0; i < options_.num_reconfigurers; ++i) {
    if (options_.direct_transfer) {
      reconfigurers_.push_back(std::make_unique<arestreas::DirectAresClient>(
          sim_, net_, next_pid++, registry_, /*c0=*/0, nullptr));
    } else {
      reconfigurers_.push_back(std::make_unique<reconfig::AresClient>(
          sim_, net_, next_pid++, registry_, /*c0=*/0, nullptr));
    }
    reconfigurers_.back()->set_fast_path(options_.fast_path);
    reconfigurers_.back()->set_lease_epsilon(options_.lease_epsilon);
    reconfigurers_.back()->set_config_gc(options_.config_gc);
    reconfigurer_stores_.push_back(
        std::make_unique<api::AresStore>(*reconfigurers_.back()));
  }
}

dap::ConfigSpec AresCluster::make_spec(dap::Protocol protocol,
                                       std::size_t first_server,
                                       std::size_t n, std::size_t k) {
  assert(n <= options_.server_pool);
  dap::ConfigSpec spec;
  spec.id = allocate_config_id();
  spec.protocol = protocol;
  spec.k = protocol == dap::Protocol::kTreas ? k : 1;
  spec.delta = options_.delta;
  spec.treas_retry_timeout = options_.treas_retry_timeout;
  spec.semifast = options_.semifast;
  spec.lease_ms = options_.lease_ms;
  spec.lease_policy = options_.lease_policy;
  spec.lease_adaptive = options_.lease_adaptive;
  for (std::size_t i = 0; i < n; ++i) {
    spec.servers.push_back(static_cast<ProcessId>(
        (first_server + i) % options_.server_pool));
  }
  if (protocol == dap::Protocol::kLdr) {
    const std::size_t d = std::max<std::size_t>(1, n / 2);
    spec.directories.assign(spec.servers.begin(),
                            spec.servers.begin() + static_cast<std::ptrdiff_t>(d));
    spec.replicas.assign(spec.servers.begin(), spec.servers.end());
  }
  return spec;
}

std::vector<ConfigId> AresCluster::shard_objects(
    placement::PlacementPolicy& policy, std::size_t num_shards,
    std::size_t servers_per_shard, dap::Protocol protocol, std::size_t k) {
  assert(num_shards > 0 && servers_per_shard > 0);
  std::vector<ConfigId> shards;
  shards.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    auto spec =
        make_spec(protocol, s * servers_per_shard, servers_per_shard, k);
    shards.push_back(registry_.register_config(std::move(spec)));
  }
  for (ObjectId obj = 0; obj < options_.num_objects; ++obj) {
    const ConfigId shard = policy.place(obj, shards);
    placement_[obj] = shard;
    for (auto& c : clients_) c->bind_object(obj, shard);
    for (auto& r : reconfigurers_) r->bind_object(obj, shard);
  }
  return shards;
}

void AresCluster::crash_server(std::size_t i) {
  assert(i < servers_.size());
  net_.crash(servers_[i]->id());
}

void AresCluster::restart_server(std::size_t i) {
  assert(i < servers_.size());
  const ProcessId pid = servers_[i]->id();
  assert(net_.is_crashed(pid) && "restart of a server that never crashed");
  // Destroy first (unregisters pid and cancels its pending RPC matching;
  // lease timers no-op via the DapServer alive sentinel), then lift the
  // network crash flag and re-register a fresh, empty process.
  servers_[i].reset();
  net_.restart(pid);
  servers_[i] =
      std::make_unique<reconfig::AresServer>(sim_, net_, pid, registry_);
  if (options_.wal) {
    // An *empty* device at restart is a broken chain, not a fresh boot: the
    // server may have acked journaled state before the disk died with it
    // (MemDevice::wipe), and replay cannot tell the difference — an empty
    // journal replays "intact". Rejoining un-fenced with empty state would
    // let the server contribute void replies to quorums that durably
    // intersect the writes it forgot. Conservatively fence.
    const bool had_chain = !wal_devices_[i]->list("").empty();
    const bool intact = servers_[i]->attach_journal(wal_devices_[i]) && had_chain;
    if (intact) {
      // WAL-backed recovery: pre-crash state is restored, so the server may
      // serve its old configurations immediately — except LDR ones, whose
      // directory state is never journaled (no record shape) and must stay
      // fenced until a transfer re-seeds it.
      std::vector<ConfigId> fenced;
      for (ConfigId cfg : registry_.ids()) {
        if (registry_.get(cfg).protocol == dap::Protocol::kLdr) {
          fenced.push_back(cfg);
        }
      }
      servers_[i]->begin_recovery(std::move(fenced));
      return;
    }
    // Broken chain (torn mid-log, missing segment): the journal is wiped
    // and recovery degrades to diskless amnesia below.
  }
  servers_[i]->begin_recovery(registry_.ids());
}

std::size_t AresCluster::total_stored_bytes() const {
  std::size_t sum = 0;
  for (const auto& s : servers_) sum += s->stored_data_bytes();
  return sum;
}

WorkloadResult AresCluster::run_multi_object_workload(WorkloadOptions opt) {
  opt.num_objects = options_.num_objects;
  return run_workload(sim_, stores(), opt);
}

}  // namespace ares::harness
