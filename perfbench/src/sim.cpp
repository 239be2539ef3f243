// The simulator workloads: harness::AresCluster with no sockets, optionally
// with a reconfigurer moving each object in turn between 5-server ABD and
// TREAS [5,3] configurations. A run is made of rounds of a fixed operation
// count on a fresh cluster, timed in wall clock; simulated time is never
// reported.
#include "check.hpp"
#include "harness/ares_cluster.hpp"
#include "storage/wal.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#include <algorithm>
#include <memory>

namespace perfbench {

using namespace ares;

namespace {

constexpr std::size_t kReconfigPool = 8;
constexpr std::size_t kIdleOps = 200;

struct ReconfigLog {
  bool ok = true;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
};

/// One fixed-size round on its own cluster.
struct Round {
  explicit Round(harness::AresClusterOptions o)
      : cluster(std::move(o)), treas(cluster.options().num_objects, true) {}
  harness::AresCluster cluster;
  Phase phase = Phase::kWarmup;
  Tracer* tracer = nullptr;
  std::int64_t clock = 0;  // logical time: ticked around every call
  std::size_t clients_done = 0;
  bool reconfig_done = false;
  std::vector<bool> treas;  // per object: current configuration is TREAS
  std::vector<OpLog> log;
  std::vector<ReconfigLog> reconfigs;
  std::size_t events = 0;
  double run_s = 0;
};

class SimRun {
 public:
  SimRun(const Args& args, const SimShape& shape)
      : args_(args), shape_(shape), seq_(shape.clients, 0) {}

  Report run();

 private:
  std::unique_ptr<Round> start_round(std::size_t index, Phase phase,
                                     double& setup_s);
  void drive(Round& rd);
  sim::Future<void> client_loop(Round* rd, std::uint32_t c, Rng rng);
  sim::Future<void> reconfig_loop(Round* rd);
  void finish_round(Round& rd);

  const Args& args_;
  SimShape shape_;
  std::vector<std::uint64_t> seq_;  // per-client write sequence, whole run
  std::uint64_t next_op_ = 0;
  Tracer tracer_{1};
  std::vector<OpLog> kept_;  // every finished round's operations
  std::vector<ReconfigLog> reconfigs_[2];  // [untraced, traced]
  std::vector<Summary> round_sums_[2];     // [untraced, traced]
  double run_s_[2] = {0, 0};
  std::size_t events_[2] = {0, 0};
  std::size_t stored_bytes_ = 0;
  std::uint64_t wal_bytes_ = 0;
  std::size_t wal_ops_ = 0;
  Report report_;
};

std::unique_ptr<Round> SimRun::start_round(std::size_t index, Phase phase,
                                           double& setup_s) {
  harness::AresClusterOptions o;
  o.server_pool = shape_.reconfig ? kReconfigPool : shape_.servers;
  o.initial_protocol = shape_.protocol;
  o.initial_servers = shape_.servers;
  o.initial_k = shape_.k;
  o.num_rw_clients = shape_.clients;
  o.num_reconfigurers = shape_.reconfig ? 1 : 0;
  o.num_objects = shape_.mix.objects;
  o.fast_path = true;
  o.wal = shape_.reconfig;
  o.config_gc = shape_.reconfig;
  o.seed = mix64(args_.seed) + index;
  const std::int64_t t0 = now_ns();
  auto rd = std::make_unique<Round>(o);
  rd->phase = Phase::kSetup;
  // Setup ends with one completed operation on every client.
  for (std::uint32_t c = 0; c < shape_.clients; ++c) {
    OpLog log{.object = static_cast<ObjectId>(c), .cls = OpClass::kRead,
              .phase = Phase::kSetup};
    log.start = ++rd->clock;
    try {
      const OpResult r = sim::run_to_completion(
          rd->cluster.sim(), rd->cluster.store(c).read(log.object));
      log.ok = r.ok();
      log.value = identify_value(args_.seed, r.value.get(), shape_.mix.value_size);
    } catch (const std::exception&) {
      log.ok = false;
    }
    log.end = ++rd->clock;
    rd->log.push_back(log);
  }
  setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  rd->phase = phase;
  return rd;
}

sim::Future<void> SimRun::client_loop(Round* rd, std::uint32_t c, Rng rng) {
  api::Store& store = rd->cluster.store(c);
  Tracer* tr = rd->tracer;
  for (std::size_t done = 0; done < shape_.ops_per_client;) {
    const std::uint64_t op = ++next_op_;
    ScopedSpan root(tr, "op", op);
    const double u = rng.uniform01();
    const bool write = u < shape_.mix.write_frac;
    const bool batch = !write && u < shape_.mix.write_frac + shape_.mix.batch_frac;
    std::vector<ObjectId> keys;
    const std::size_t members = batch ? shape_.mix.batch : 1;
    while (keys.size() < members) {
      const auto k = static_cast<ObjectId>(rng.uniform(0, shape_.mix.objects - 1));
      if (std::find(keys.begin(), keys.end(), k) == keys.end()) keys.push_back(k);
    }
    ValuePtr value;
    ValueId id = kInitialValueId;
    if (write) {
      ScopedSpan s(tr, "bench.make_value", op, root.id());
      const std::uint64_t seq = ++seq_[c];
      value = make_value(args_.seed, c, seq, shape_.mix.value_size);
      id = value_id(c, seq);
    }
    std::vector<OpResult> results;
    bool ok = true;
    const std::int64_t start = ++rd->clock;
    const std::int64_t wall0 = now_ns();
    {
      ScopedSpan s(tr, write ? "api.write" : batch ? "api.read_batch" : "api.read",
                   op, root.id());
      try {
        if (write) {
          results.push_back(co_await store.write(keys[0], value));
        } else if (batch) {
          results = co_await store.read_many(keys);
        } else {
          results.push_back(co_await store.read(keys[0]));
        }
      } catch (const std::exception&) {
        ok = false;
      }
    }
    const std::int64_t latency = now_ns() - wall0;
    const std::int64_t end = ++rd->clock;
    ScopedSpan verify(tr, "bench.verify", op, root.id());
    for (std::size_t m = 0; m < keys.size(); ++m) {
      OpLog log{.object = keys[m],
                .cls = write ? OpClass::kWrite : batch ? OpClass::kBatch : OpClass::kRead,
                .phase = rd->phase};
      log.start = start;
      log.end = end;
      log.latency_ns = latency;
      log.ok = ok && m < results.size() && results[m].ok() &&
               results[m].object == keys[m];
      if (write) {
        log.value = id;
      } else if (log.ok) {
        log.value = identify_value(args_.seed, results[m].value.get(), shape_.mix.value_size);
      }
      if (m < results.size()) {
        log.rounds = results[m].metrics.rounds;
        log.messages = results[m].metrics.messages;
        log.bytes = results[m].metrics.bytes;
        log.elided = results[m].metrics.elided_rounds;
      }
      rd->log.push_back(log);
    }
    done += keys.size();
  }
  ++rd->clients_done;
}

sim::Future<void> SimRun::reconfig_loop(Round* rd) {
  for (std::size_t r = 0; rd->clients_done < shape_.clients; ++r) {
    const auto obj = static_cast<ObjectId>(r % shape_.mix.objects);
    const bool to_abd = rd->treas[obj];
    dap::ConfigSpec spec = rd->cluster.make_spec(
        to_abd ? dap::Protocol::kAbd : dap::Protocol::kTreas,
        (r * 3 + 1) % kReconfigPool, 5, to_abd ? 1 : 3);
    ReconfigLog log;
    try {
      const OpResult res =
          co_await rd->cluster.reconfigurer_store(0).reconfig(obj, std::move(spec));
      log.ok = res.ok();
      log.rounds = res.metrics.rounds;
      log.messages = res.metrics.messages;
    } catch (const std::exception&) {
      log.ok = false;
    }
    if (log.ok) rd->treas[obj] = !to_abd;
    rd->reconfigs.push_back(log);
  }
  rd->reconfig_done = true;
}

void SimRun::drive(Round& rd) {
  const std::size_t ev0 = rd.cluster.sim().events_executed();
  const std::int64_t t0 = now_ns();
  for (std::uint32_t c = 0; c < shape_.clients; ++c) {
    Rng rng(mix64(args_.seed) ^ mix64(rd.cluster.options().seed * 16 + c));
    sim::detach(client_loop(&rd, c, rng));
  }
  if (shape_.reconfig) {
    sim::detach(reconfig_loop(&rd));
  } else {
    rd.reconfig_done = true;
  }
  const bool finished = rd.cluster.sim().run_until([this, &rd] {
    return rd.clients_done == shape_.clients && rd.reconfig_done;
  });
  rd.run_s = static_cast<double>(now_ns() - t0) / 1e9;
  rd.events = rd.cluster.sim().events_executed() - ev0;
  if (!finished) report_.fail("a simulator round did not finish");
}

void SimRun::finish_round(Round& rd) {
  check_history(rd.log, report_);
  for (const auto& [obj, verdict] : rd.cluster.check_atomicity_per_object()) {
    if (!verdict.ok) {
      report_.fail("tag checker, object " + std::to_string(obj) + ": " +
                   verdict.violation);
      break;
    }
  }
  for (const OpLog& op : rd.log) {
    ++report_.attempted;
    if (!op.ok) ++report_.failed;
  }
  for (const ReconfigLog& r : rd.reconfigs) {
    ++report_.attempted;
    if (!r.ok) ++report_.failed;
  }
  if (rd.phase == Phase::kMeasured || rd.phase == Phase::kTraced) {
    const int t = rd.phase == Phase::kTraced ? 1 : 0;
    run_s_[t] += rd.run_s;
    round_sums_[t].push_back(summarize(rd.log, rd.phase, rd.run_s));
    events_[t] += rd.events;
    reconfigs_[t].insert(reconfigs_[t].end(), rd.reconfigs.begin(), rd.reconfigs.end());
    stored_bytes_ = rd.cluster.total_stored_bytes();
    wal_bytes_ = 0;
    for (const auto& s : rd.cluster.servers()) {
      if (s->journal()) wal_bytes_ += s->journal()->stats().bytes_appended;
    }
    wal_ops_ = rd.log.size();
  }
  kept_.insert(kept_.end(), rd.log.begin(), rd.log.end());
}

Report SimRun::run() {
  const std::string why = lincheck_self_test();
  if (!why.empty()) report_.fail(why);

  std::vector<double> setups;
  std::size_t index = 0;
  auto round = [&](Phase phase) {
    double setup_s = 0;
    auto rd = start_round(index++, phase, setup_s);
    setups.push_back(setup_s);
    if (phase == Phase::kTraced) rd->tracer = &tracer_;
    drive(*rd);
    return rd;
  };

  finish_round(*round(Phase::kWarmup));
  const std::int64_t t0 = now_ns();
  auto elapsed = [&] { return static_cast<double>(now_ns() - t0) / 1e9; };
  if (!args_.trace) {
    do {
      finish_round(*round(Phase::kMeasured));
    } while (elapsed() < args_.seconds);
    put_end_to_end(report_, median_of(round_sums_[0]), percentile(setups, 50));
    return report_;
  }

  do {
    finish_round(*round(Phase::kMeasured));
  } while (elapsed() < args_.seconds / 2);
  // Destroy each round's cluster before building the next: Simulator
  // keeps Simulator::current() as a stack of live instances, so clusters
  // must not be destroyed out of construction order.
  std::unique_ptr<Round> last;
  do {
    if (last) {
      finish_round(*last);
      last.reset();
    }
    last = round(Phase::kTraced);
  } while (elapsed() < args_.seconds);

  // One client alone on the last cluster, nothing else running.
  Rng rng(args_.seed ^ 0x1D1Eu);
  for (std::size_t i = 0; i < kIdleOps; ++i) {
    const auto obj = static_cast<ObjectId>(rng.uniform(0, shape_.mix.objects - 1));
    OpLog log{.object = obj, .cls = i % 2 == 0 ? OpClass::kWrite : OpClass::kRead,
              .phase = Phase::kIdle};
    log.start = ++last->clock;
    const std::int64_t w0 = now_ns();
    try {
      if (log.is_write()) {
        const std::uint64_t seq = ++seq_[0];
        log.value = value_id(0, seq);
        const OpResult r = sim::run_to_completion(
            last->cluster.sim(),
            last->cluster.store(0).write(obj, make_value(args_.seed, 0, seq, shape_.mix.value_size)));
        log.ok = r.ok();
      } else {
        const OpResult r = sim::run_to_completion(last->cluster.sim(),
                                                  last->cluster.store(0).read(obj));
        log.ok = r.ok();
        log.value = identify_value(args_.seed, r.value.get(), shape_.mix.value_size);
      }
    } catch (const std::exception&) {
      log.ok = false;
    }
    log.latency_ns = now_ns() - w0;
    log.end = ++last->clock;
    last->log.push_back(log);
  }
  finish_round(*last);

  const Summary traced = summarize(kept_, Phase::kTraced, run_s_[1]);
  const Summary untraced = median_of(round_sums_[0]);
  const double ops_untraced = untraced.ops_per_s;
  put_tail_latency(report_, untraced);
  const double ops_traced = median_of(round_sums_[1]).ops_per_s;
  put_protocol_costs(report_, traced);
  put_idle_latency(report_, kept_, Phase::kIdle);
  put_unit_costs(report_, shape_.mix,
                 shape_.reconfig || shape_.protocol == dap::Protocol::kAbd,
                 shape_.reconfig || shape_.protocol == dap::Protocol::kTreas);

  double rounds = 0, msgs = 0;
  for (const ReconfigLog& r : reconfigs_[1]) {
    rounds += static_cast<double>(r.rounds);
    msgs += static_cast<double>(r.messages);
  }
  const auto n_reconfig = static_cast<double>(reconfigs_[1].size());
  report_.set("reconfig_per_s", n_reconfig / run_s_[1], "1/s");
  report_.set("ares.reconfig_rounds", n_reconfig > 0 ? rounds / n_reconfig : 0, "count");
  report_.set("ares.reconfig_msgs", n_reconfig > 0 ? msgs / n_reconfig : 0, "count");
  report_.set("sim.events_per_op",
              static_cast<double>(events_[1]) / static_cast<double>(traced.ops), "count");
  report_.set("sim.ns_per_event", run_s_[1] * 1e9 / static_cast<double>(events_[1]), "ns");
  report_.set("storage.wal_bytes_per_op",
              static_cast<double>(wal_bytes_) / static_cast<double>(wal_ops_), "B");
  report_.set("storage.stored_bytes_per_object",
              static_cast<double>(stored_bytes_) / static_cast<double>(shape_.mix.objects), "B");
  report_.set("trace.ops_per_s_untraced", ops_untraced, "1/s");
  report_.set("trace.ops_per_s_traced", ops_traced, "1/s");
  report_.set("trace.overhead_pct",
              100.0 * (ops_untraced - ops_traced) / ops_untraced, "%");
  put_self_times(report_, tracer_.spans(), traced.ops);
  char extra[512];
  std::snprintf(extra, sizeof extra,
                "\"ops_per_s_untraced\": %.3f, \"ops_per_s_traced\": %.3f, "
                "\"seed\": %llu, \"traced_ops\": %zu, \"traced_reconfigs\": %zu, "
                "\"events\": %zu",
                ops_untraced, ops_traced,
                static_cast<unsigned long long>(args_.seed), traced.ops, reconfigs_[1].size(),
                events_[1]);
  if (write_trace(args_.out_dir, args_.workload, tracer_.spans(), extra)
          .empty()) {
    report_.fail("could not write the trace files");
  }
  return report_;
}

}  // namespace

Report run_sim(const Args& args, const SimShape& shape) {
  return SimRun(args, shape).run();
}

}  // namespace perfbench
