// The TCP workloads: a NetCluster over localhost driven by closed-loop
// client threads, each waiting for its reply before sending the next
// request.
#include "check.hpp"
#include "net/cluster.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

namespace perfbench {

using namespace ares;

namespace {

constexpr int kSetups = 11;
constexpr double kWarmupS = 1.0;
constexpr double kIdleS = 1.0;
constexpr std::size_t kIdleOps = 300;
constexpr std::int64_t kSampleEveryNs = 2'000'000;
constexpr std::size_t kWindows = 20;

/// What one client thread keeps across phases: its choice stream, its
/// write sequence (values stay unique for the whole run) and its log.
struct ClientState {
  explicit ClientState(std::uint32_t index, std::uint64_t seed)
      : index(index), rng(mix64(seed) ^ (0x51ED27u + index)), tracer(index + 1) {}
  std::uint32_t index;
  Rng rng;
  std::uint64_t seq = 0;
  std::uint64_t op = 0;
  std::vector<OpLog> log;
  Tracer tracer;
};

class TcpRun {
 public:
  TcpRun(const Args& args, const TcpShape& shape)
      : args_(args), shape_(shape) {
    opts_.servers = shape.servers;
    opts_.protocol = shape.protocol;
    opts_.k = shape.k;
    opts_.num_clients = kTcpClients;
    opts_.num_objects = shape.mix.objects;
    opts_.fast_path = true;
    opts_.lease_us = 0;
    opts_.seed = args.seed;
    for (std::uint32_t c = 0; c < kTcpClients; ++c) {
      clients_.emplace_back(c, args.seed);
    }
  }

  Report run();

 private:
  /// Builds the cluster and completes one read on every client (NetCluster
  /// dials lazily, so the dial cost lands here). Returns seconds taken.
  double setup();

  /// One iteration of client `st`'s closed loop.
  void iterate(ClientState& st, Phase phase, Tracer* tr);
  void scalar_read(ClientState& st, ObjectId obj, Phase phase, Tracer* tr,
                   std::uint64_t root);
  void scalar_write(ClientState& st, ObjectId obj, Phase phase, Tracer* tr,
                    std::uint64_t root);

  /// Runs every client's loop until `seconds` have passed; returns the
  /// phase's start time.
  std::int64_t run_phase(Phase phase, double seconds, bool traced);

  /// Traced phase only: times entries into a loaded client's node runtime
  /// and samples every sender queue.
  void sample_loop(const std::atomic<bool>& stop, Tracer& tr);

  [[nodiscard]] std::vector<OpLog> all_ops() const {
    std::vector<OpLog> all;
    for (const auto& st : clients_) {
      all.insert(all.end(), st.log.begin(), st.log.end());
    }
    return all;
  }

  const Args& args_;
  TcpShape shape_;
  net::NetClusterOptions opts_;
  std::unique_ptr<net::NetCluster> cluster_;
  std::vector<ClientState> clients_;
  std::vector<double> enter_us_;
  std::vector<double> queue_depths_;
  Report report_;
};

double TcpRun::setup() {
  cluster_.reset();
  const std::int64_t t0 = now_ns();
  cluster_ = std::make_unique<net::NetCluster>(opts_);
  for (auto& st : clients_) {
    scalar_read(st, static_cast<ObjectId>(st.index), Phase::kSetup, nullptr, 0);
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

void TcpRun::scalar_read(ClientState& st, ObjectId obj, Phase phase,
                         Tracer* tr, std::uint64_t root) {
  OpLog log{.object = obj, .cls = OpClass::kRead, .phase = phase};
  OpResult r;
  log.start = now_ns();
  {
    ScopedSpan s(tr, "api.read", st.op, root);
    try {
      r = cluster_->read(st.index, obj);
      log.ok = r.ok();
    } catch (const std::exception&) {
      log.ok = false;
    }
  }
  log.end = now_ns();
  log.latency_ns = log.end - log.start;
  if (log.ok) {
    ScopedSpan s(tr, "bench.verify", st.op, root);
    log.value = identify_value(args_.seed, r.value.get(), shape_.mix.value_size);
  }
  log.rounds = r.metrics.rounds;
  log.messages = r.metrics.messages;
  log.bytes = r.metrics.bytes;
  log.elided = r.metrics.elided_rounds;
  st.log.push_back(log);
}

void TcpRun::scalar_write(ClientState& st, ObjectId obj, Phase phase,
                          Tracer* tr, std::uint64_t root) {
  const std::uint64_t seq = ++st.seq;
  ValuePtr v;
  {
    ScopedSpan s(tr, "bench.make_value", st.op, root);
    v = make_value(args_.seed, st.index, seq, shape_.mix.value_size);
  }
  OpLog log{.object = obj, .cls = OpClass::kWrite, .phase = phase,
            .value = value_id(st.index, seq)};
  OpResult r;
  log.start = now_ns();
  {
    ScopedSpan s(tr, "api.write", st.op, root);
    try {
      r = cluster_->write(st.index, obj, std::move(v));
      log.ok = r.ok();
    } catch (const std::exception&) {
      log.ok = false;
    }
  }
  log.end = now_ns();
  log.latency_ns = log.end - log.start;
  log.rounds = r.metrics.rounds;
  log.messages = r.metrics.messages;
  log.bytes = r.metrics.bytes;
  log.elided = r.metrics.elided_rounds;
  st.log.push_back(log);
}

void TcpRun::iterate(ClientState& st, Phase phase, Tracer* tr) {
  const Mix& mix = shape_.mix;
  ++st.op;
  ScopedSpan root(tr, "op", st.op);
  const double u = st.rng.uniform01();
  if (u < mix.write_frac) {
    const auto obj = static_cast<ObjectId>(st.rng.uniform(0, mix.objects - 1));
    scalar_write(st, obj, phase, tr, root.id());
    return;
  }
  if (u >= mix.write_frac + mix.batch_frac) {
    const auto obj = static_cast<ObjectId>(st.rng.uniform(0, mix.objects - 1));
    scalar_read(st, obj, phase, tr, root.id());
    return;
  }
  std::vector<ObjectId> keys;
  while (keys.size() < mix.batch) {
    const auto k = static_cast<ObjectId>(st.rng.uniform(0, mix.objects - 1));
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) keys.push_back(k);
  }
  std::vector<OpResult> results;
  bool ok = true;
  const std::int64_t start = now_ns();
  {
    ScopedSpan s(tr, "api.read_batch", st.op, root.id());
    try {
      results = cluster_->read_batch(st.index, keys);
    } catch (const std::exception&) {
      ok = false;
    }
  }
  const std::int64_t end = now_ns();
  ScopedSpan verify(tr, "bench.verify", st.op, root.id());
  for (std::size_t m = 0; m < keys.size(); ++m) {
    OpLog log{.object = keys[m], .cls = OpClass::kBatch, .phase = phase};
    log.start = start;
    log.end = end;
    log.latency_ns = end - start;
    log.ok = ok && m < results.size() && results[m].ok() &&
             results[m].object == keys[m];
    if (log.ok) {
      const OpResult& r = results[m];
      log.value = identify_value(args_.seed, r.value.get(), mix.value_size);
      log.rounds = r.metrics.rounds;
      log.messages = r.metrics.messages;
      log.bytes = r.metrics.bytes;
      log.elided = r.metrics.elided_rounds;
    }
    st.log.push_back(log);
  }
}

std::int64_t TcpRun::run_phase(Phase phase, double seconds, bool traced) {
  const std::int64_t t0 = now_ns();
  const std::int64_t stop_at = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (auto& st : clients_) {
    threads.emplace_back([this, &st, phase, traced, stop_at] {
      Tracer* tr = traced ? &st.tracer : nullptr;
      while (now_ns() < stop_at) iterate(st, phase, tr);
    });
  }
  for (auto& t : threads) t.join();
  return t0;
}

/// The phase cut into kWindows equal windows by operation start time, and
/// the median of the windows' figures.
Summary windowed(const std::vector<OpLog>& ops, Phase phase, std::int64_t t0,
                 double seconds) {
  const double window_s = seconds / kWindows;
  std::vector<std::vector<OpLog>> parts(kWindows);
  for (const OpLog& op : ops) {
    if (op.phase != phase) continue;
    const auto w = static_cast<std::size_t>(
        static_cast<double>(op.start - t0) / 1e9 / window_s);
    parts[std::min(w, kWindows - 1)].push_back(op);
  }
  std::vector<Summary> sums;
  for (const auto& part : parts) sums.push_back(summarize(part, phase, window_s));
  return median_of(sums);
}

void TcpRun::sample_loop(const std::atomic<bool>& stop, Tracer& tr) {
  std::uint64_t op = 0;
  while (!stop.load()) {
    const std::int64_t next = now_ns() + kSampleEveryNs;
    for (std::size_t c = 0; c < kTcpClients; ++c) {
      ScopedSpan s(&tr, "net.runtime.enter", ++op);
      const std::int64_t t0 = now_ns();
      (void)cluster_->client_inflight_marks(c, 0);
      enter_us_.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    for (std::size_t c = 0; c < kTcpClients; ++c) {
      for (std::size_t s = 0; s < shape_.servers; ++s) {
        queue_depths_.push_back(static_cast<double>(
            cluster_->client_transport(c).queue_depth(static_cast<ProcessId>(s))));
        queue_depths_.push_back(static_cast<double>(
            cluster_->server_transport(s).queue_depth(
                static_cast<ProcessId>(100 + c))));
      }
    }
    while (!stop.load() && now_ns() < next) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

Report TcpRun::run() {
  const std::string why = lincheck_self_test();
  if (!why.empty()) report_.fail(why);

  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    // Each setup replaces the cluster: account for the previous one's
    // probe reads (they read a fresh register, so only v0 is correct).
    for (auto& st : clients_) {
      for (const OpLog& op : st.log) {
        ++report_.attempted;
        if (!op.ok) ++report_.failed;
        if (op.ok && op.value != kInitialValueId) {
          report_.fail("setup read of a fresh cluster returned a written value");
        }
      }
      st.log.clear();
    }
    setups.push_back(setup());
  }
  const double setup_s = percentile(setups, 50);

  run_phase(Phase::kWarmup, kWarmupS, false);

  if (!args_.trace) {
    const std::int64_t t0 = run_phase(Phase::kMeasured, args_.seconds, false);
    put_end_to_end(report_,
                   windowed(all_ops(), Phase::kMeasured, t0, args_.seconds),
                   setup_s);
  } else {
    // Same workload untraced, then traced: the difference is the overhead.
    const std::int64_t untraced_t0 =
        run_phase(Phase::kMeasured, args_.seconds / 2, false);
    const std::uint64_t frames0 = cluster_->total_frames_sent();
    std::atomic<bool> stop{false};
    Tracer sampler_tracer(kTcpClients + 1);
    std::thread sampler([&] { sample_loop(stop, sampler_tracer); });
    const std::int64_t traced_t0 =
        run_phase(Phase::kTraced, args_.seconds / 2, true);
    const double traced_s = static_cast<double>(now_ns() - traced_t0) / 1e9;
    stop.store(true);
    sampler.join();
    const std::uint64_t frames = cluster_->total_frames_sent() - frames0;

    // One client alone, nothing else running.
    const std::int64_t idle_stop = now_ns() + static_cast<std::int64_t>(kIdleS * 1e9);
    auto& st0 = clients_[0];
    for (std::size_t i = 0; i < kIdleOps && now_ns() < idle_stop; ++i) {
      const auto obj = static_cast<ObjectId>(st0.rng.uniform(0, shape_.mix.objects - 1));
      if (i % 2 == 0) {
        scalar_write(st0, obj, Phase::kIdle, nullptr, 0);
      } else {
        scalar_read(st0, obj, Phase::kIdle, nullptr, 0);
      }
    }

    const std::vector<OpLog> all = all_ops();
    std::vector<Span> spans = sampler_tracer.spans();
    for (const auto& st : clients_) {
      spans.insert(spans.end(), st.tracer.spans().begin(), st.tracer.spans().end());
    }
    const Summary traced = summarize(all, Phase::kTraced, traced_s);
    const Summary untraced =
        windowed(all, Phase::kMeasured, untraced_t0, args_.seconds / 2);
    const double ops_untraced = untraced.ops_per_s;
    put_tail_latency(report_, untraced);
    const double ops_traced =
        windowed(all, Phase::kTraced, traced_t0, args_.seconds / 2).ops_per_s;
    put_protocol_costs(report_, traced);
    put_idle_latency(report_, all, Phase::kIdle);
    put_unit_costs(report_, shape_.mix, shape_.protocol == dap::Protocol::kAbd,
                   shape_.protocol == dap::Protocol::kTreas);

    std::uint64_t dropped = 0;
    for (std::size_t c = 0; c < kTcpClients; ++c) {
      dropped += cluster_->client_transport(c).frames_dropped();
    }
    for (std::size_t s = 0; s < shape_.servers; ++s) {
      dropped += cluster_->server_transport(s).frames_dropped();
    }
    report_.set("net.frames_per_op",
                traced.ops ? static_cast<double>(frames) / static_cast<double>(traced.ops) : 0,
                "count");
    report_.set("net.queue_depth_p99", percentile(queue_depths_, 99), "count");
    report_.set("net.retransmits", static_cast<double>(cluster_->total_retransmits()), "count");
    report_.set("net.frames_dropped", static_cast<double>(dropped), "count");
    report_.set("net.runtime.enter_us_p50", percentile(enter_us_, 50), "us");
    report_.set("net.runtime.enter_us_p99", percentile(enter_us_, 99), "us");
    report_.set("trace.ops_per_s_untraced", ops_untraced, "1/s");
    report_.set("trace.ops_per_s_traced", ops_traced, "1/s");
    report_.set("trace.overhead_pct",
                ops_untraced > 0 ? 100.0 * (ops_untraced - ops_traced) / ops_untraced : 0,
                "%");
    put_self_times(report_, spans, traced.ops);
    // Blocking steps of an average op, from the unit costs: the RS codec
    // (TREAS writes encode, reads decode), wire encode + decode of every
    // frame the op caused, and the rest of the time inside the system
    // (transport, threads, node lock, servers).
    auto metric = [&](const char* name) { return report_.metrics[name].first; };
    const double n = static_cast<double>(std::max<std::size_t>(traced.ops, 1));
    double codec_us = 0;
    if (shape_.protocol == dap::Protocol::kTreas) {
      std::size_t writes = 0;
      for (const OpLog& op : all) {
        if (op.phase == Phase::kTraced && op.ok && op.is_write()) ++writes;
      }
      codec_us = (static_cast<double>(writes) * metric("codec.encode_us") +
                  (n - static_cast<double>(writes)) * metric("codec.decode_us")) /
                 n;
    }
    const double wire_us = metric("net.frames_per_op") *
                           (metric("net.wire.encode_ns") + metric("net.wire.decode_ns")) / 1e3;
    const double api_us = metric("trace.api_self_us_per_op");
    char extra[768];
    std::snprintf(extra, sizeof extra,
                  "\"ops_per_s_untraced\": %.3f, \"ops_per_s_traced\": %.3f, "
                  "\"seed\": %llu, \"traced_ops\": %zu, \"frames_sent\": %llu, "
                  "\"budget_us_per_op\": {\"codec\": %.3f, \"wire\": %.3f, "
                  "\"transport_runtime_servers\": %.3f, \"benchmark\": %.3f}",
                  ops_untraced, ops_traced,
                  static_cast<unsigned long long>(args_.seed), traced.ops,
                  static_cast<unsigned long long>(frames), codec_us, wire_us,
                  api_us - codec_us - wire_us, metric("trace.bench_self_us_per_op"));
    if (write_trace(args_.out_dir, args_.workload, spans, extra).empty()) {
      report_.fail("could not write the trace files");
    }
  }

  // Correctness over every operation the final cluster saw.
  const std::vector<OpLog> all = all_ops();
  for (const OpLog& op : all) {
    ++report_.attempted;
    if (!op.ok) ++report_.failed;
  }
  check_history(all, report_);
  for (const auto& [obj, verdict] : cluster_->check_atomicity()) {
    if (!verdict.ok) {
      report_.fail("tag checker, object " + std::to_string(obj) + ": " +
                   verdict.violation);
      break;
    }
  }
  cluster_.reset();
  return report_;
}

}  // namespace

Report run_tcp(const Args& args, const TcpShape& shape) {
  return TcpRun(args, shape).run();
}

}  // namespace perfbench
