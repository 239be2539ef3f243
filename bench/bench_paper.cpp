// The paper's claims as one gated bench on harness::AresCluster, every row
// in the paper's exact message pattern (fast path and semifast reads off):
// Theorem 3's storage (E1) and per-op communication (E2/E3, E12), Theorem
// 9's liveness (the δ stall in E12, the k > n/3 ablation), Lemmas 55-60's
// latency bands and bounds (E5-E10), ARES-TREAS's direct transfer (E11),
// and E13's scalability shapes (a table only: the paper states no bound).
// Writes BENCH_paper.json (or argv[1]); exits 1 if any gate fails.
#include "ares/client.hpp"
#include "consensus/paxos.hpp"
#include "harness/ares_cluster.hpp"
#include "harness/json.hpp"
#include "harness/table.hpp"
#include "harness/workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace {

using namespace ares;
using dap::Protocol;
using harness::AresCluster;
using harness::AresClusterOptions;
using harness::Json;

/// One table cell: its printed text and its JSON value.
struct Cell {
  std::string text;
  Json json;
  Cell(const char* s) : text(s), json(s) {}             // NOLINT
  Cell(std::string s) : text(s), json(std::move(s)) {}  // NOLINT
  Cell(double v) : text(harness::fmt(v)), json(v) {}    // NOLINT
  Cell(bool b) : text(b ? "yes" : "NO"), json(b) {}     // NOLINT
  template <typename T>
    requires(std::integral<T> && !std::same_as<T, bool>)
  Cell(T v) : text(std::to_string(v)), json(v) {}  // NOLINT
};

/// A markdown table mirrored row by row into a JSON array.
class Section {
 public:
  explicit Section(std::vector<std::string> headers)
      : headers_(headers), table_(std::move(headers)) {}

  void add(const std::vector<Cell>& cells) {
    std::vector<std::string> texts;
    Json row;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      texts.push_back(cells[i].text);
      row.set(headers_[i], cells[i].json);
    }
    table_.add_cells(std::move(texts));
    rows_.push(std::move(row));
  }

  /// Prints the table under `title` and files the rows under `key`.
  void emit(Json& doc, const char* key, const std::string& title) {
    std::printf("\n%s\n\n", title.c_str());
    table_.print();
    doc.set(key, rows_);
  }

 private:
  std::vector<std::string> headers_;
  harness::Table table_;
  Json rows_ = Json::array();
};

int g_failed_gates = 0;

/// Counts and reports a failed claim; returns `ok` for the row's cell.
bool gate(bool ok, const std::string& what) {
  if (!ok) std::printf("FAIL: %s\n", what.c_str());
  g_failed_gates += ok ? 0 : 1;
  return ok;
}

bool near(double a, double b) { return std::fabs(a - b) <= 0.01; }

std::string nk(std::size_t n, std::size_t k) {
  return "[" + std::to_string(n) + "," + std::to_string(k) + "]";
}

ValuePtr val(std::size_t size, std::uint64_t seed) {
  return make_value(make_test_value(size, seed));
}

/// Simulated time `f` takes to complete.
template <typename T>
SimDuration timed(sim::Simulator& sim, sim::Future<T> f) {
  const SimTime t0 = sim.now();
  (void)sim::run_to_completion(sim, std::move(f));
  return sim.now() - t0;
}

/// c0 = `p` over n servers, one reader/writer client, no reconfigurer.
AresClusterOptions single(Protocol p, std::size_t n, std::size_t k,
                          std::size_t delta) {
  return {.server_pool = n, .initial_protocol = p, .initial_servers = n,
          .initial_k = k, .delta = delta, .num_rw_clients = 1,
          .num_reconfigurers = 0, .fast_path = false, .semifast = false};
}

/// c0 = TREAS [5,3] in a wider pool, with one reconfigurer.
AresClusterOptions pooled(std::size_t pool, std::size_t rw_clients,
                          SimDuration d, SimDuration D, std::uint64_t seed) {
  return {.server_pool = pool, .num_rw_clients = rw_clients,
          .fast_path = false, .semifast = false, .min_delay = d,
          .max_delay = D, .seed = seed};
}

/// Exposes the protected Alg. 4 actions and DAP bindings for timing.
class ProbeClient final : public reconfig::AresClient {
 public:
  using reconfig::AresClient::AresClient;
  using reconfig::AresClient::dap_for;
  using reconfig::AresClient::put_config;
  using reconfig::AresClient::read_next_config;
};

bool all_atomic(const AresCluster& cluster) {
  const auto verdicts = cluster.check_atomicity_per_object();
  return std::all_of(verdicts.begin(), verdicts.end(),
                     [](const auto& v) { return v.second.ok; });
}

struct CostRow { Protocol p; std::size_t n, k, delta; };

struct Costs {
  double storage = 0;  // after the history writes, in object-size units
  double write = 0;    // object-data bytes of one more write
  double read = 0;     // ... and of one read after it
  bool atomic = false;
};

/// `history` sequential writes fill the bounded history; then one write and
/// one read are isolated, counting late replica traffic (the worst case).
Costs measure_costs(const CostRow& r, std::size_t history,
                    std::size_t value_size) {
  AresCluster cluster(single(r.p, r.n, r.k, r.delta));
  auto& sim = cluster.sim();
  auto units = [&](std::uint64_t bytes) {
    return static_cast<double>(bytes) / static_cast<double>(value_size);
  };
  auto write = [&](std::uint64_t seed) {
    (void)timed(sim,
                cluster.store(0).write(kDefaultObject, val(value_size, seed)));
    sim.run();
  };
  for (std::size_t i = 0; i < history; ++i) write(i);
  Costs c;
  c.storage = units(cluster.total_stored_bytes());
  cluster.net().reset_stats();
  write(99);
  c.write = units(cluster.net().stats().data_bytes);
  cluster.net().reset_stats();
  (void)timed(sim, cluster.store(0).read(kDefaultObject));
  sim.run();
  c.read = units(cluster.net().stats().data_bytes);
  c.atomic = all_atomic(cluster);
  return c;
}

double paper_storage(const CostRow& r) {
  const double n = static_cast<double>(r.n), k = static_cast<double>(r.k);
  const double versions = static_cast<double>(r.delta) + 1.0;
  if (r.p == Protocol::kAbd) return n;
  if (r.p == Protocol::kTreas) return versions * n / k;
  return 3.0 * versions;  // LDR: (2f+1)(δ+1), f = 1
}

void run_storage(Json& doc) {
  Section s({"protocol", "n", "k", "delta", "measured", "paper", "ok"});
  const CostRow rows[] = {
      {Protocol::kAbd, 3, 1, 0},   {Protocol::kAbd, 5, 1, 0},
      {Protocol::kTreas, 3, 2, 0}, {Protocol::kTreas, 3, 2, 2},
      {Protocol::kTreas, 5, 3, 0}, {Protocol::kTreas, 5, 3, 2},
      {Protocol::kTreas, 5, 3, 4}, {Protocol::kTreas, 6, 4, 2},
      {Protocol::kTreas, 9, 7, 2}, {Protocol::kTreas, 11, 8, 4},
      {Protocol::kLdr, 3, 1, 2},   {Protocol::kLdr, 3, 1, 4},
  };
  for (const CostRow& r : rows) {
    const double got = measure_costs(r, 2 * (r.delta + 2), 100'000).storage;
    const double paper = paper_storage(r);
    const std::string name = dap::protocol_name(r.p);
    s.add({name, r.n, r.k, r.delta, got, paper,
           gate(near(got, paper), "E1 storage " + name + nk(r.n, r.k))});
  }
  s.emit(doc, "e1_storage",
         "E1 (Theorem 3.i): total storage in object-size units. Paper: TREAS\n"
         "(delta+1)*n/k, ABD n, LDR (2f+1)*(delta+1) with f = 1.");
}

void run_comm(Json& doc) {
  Section s({"protocol", "n", "k", "delta", "write meas", "write paper",
             "read meas", "read paper", "ok"});
  const CostRow rows[] = {
      {Protocol::kAbd, 3, 1, 0},    {Protocol::kAbd, 5, 1, 0},
      {Protocol::kTreas, 3, 2, 0},  {Protocol::kTreas, 5, 3, 0},
      {Protocol::kTreas, 5, 3, 2},  {Protocol::kTreas, 5, 3, 4},
      {Protocol::kTreas, 6, 4, 2},  {Protocol::kTreas, 9, 7, 2},
      {Protocol::kTreas, 11, 8, 2}, {Protocol::kLdr, 5, 1, 2},
  };
  for (const CostRow& r : rows) {
    const Costs c = measure_costs(r, r.delta + 2, 200'000);
    const std::string name = dap::protocol_name(r.p);
    if (r.p == Protocol::kLdr) {  // reported, not gated: see the note
      s.add({name, r.n, r.k, r.delta, c.write, 3.0, c.read, "-", "-"});
      continue;
    }
    const double n = static_cast<double>(r.n), k = static_cast<double>(r.k);
    const bool abd = r.p == Protocol::kAbd;
    const double w = abd ? n : n / k;
    const double rd = abd ? 2 * n : (r.delta + 2.0) * n / k;
    const bool ok =
        gate(near(c.write, w), "E2 write " + name + nk(r.n, r.k)) &
        gate(abd ? near(c.read, rd) : c.read <= rd + 0.01,
             "E3 read " + name + nk(r.n, r.k));
    s.add({name, r.n, r.k, r.delta, c.write, w, c.read, rd, ok});
  }
  s.emit(doc, "e2_e3_communication",
         "E2/E3 (Theorem 3.ii-iii): object-data bytes per operation, in\n"
         "object-size units. Paper: TREAS write n/k, read at most\n"
         "(delta+2)*n/k; ABD write n, read 2n.");
  std::printf(
      "LDR is not gated: get-data fetches the value from f+1 replicas (2\n"
      "units), then Algorithm 7 writes it back to 2f+1 (3 more); the LDR\n"
      "paper's one-phase read has no write-back.\n");
}

/// Theorem 9's hypothesis made concrete on TREAS [6,4]: writers B and C
/// race one reader. B's put reaches s0..s3 and C's only s0..s1 before the
/// read (the rest are held for 1000). With δ = 0 each server keeps one
/// element: t_B is in 4 Lists but decodable from 2, t_C is in only 2, so no
/// tag qualifies and the read waits for replies that never come — unless
/// it re-queries. With δ = 2 the servers still hold t_B's elements.
std::pair<bool, bool> run_stall(std::size_t delta, bool retry) {
  AresClusterOptions o = single(Protocol::kTreas, 6, 4, delta);
  o.num_rw_clients = 3;
  o.treas_retry_timeout = retry ? 400 : 0;
  AresCluster cluster(o);
  auto& sim = cluster.sim();
  const ProcessId b = cluster.client(1).id(), c = cluster.client(2).id();
  cluster.net().set_delay_fn([b, c](const sim::Message& m, Rng&) {
    const bool held =
        m.body->type_name() == "treas.put" &&
        ((m.from == b && m.to >= 4) || (m.from == c && m.to >= 2));
    return SimDuration{held ? 1000u : 10u};
  });
  (void)timed(sim, cluster.store(0).write(kDefaultObject, val(512, 1)));
  auto wb = cluster.store(1).write(kDefaultObject, val(512, 2));
  auto wc = cluster.store(2).write(kDefaultObject, val(512, 3));
  sim.run_for(100);  // both puts reached their fast servers
  auto rd = cluster.store(0).read(kDefaultObject);
  const bool done = sim.run_until([&] { return rd.ready(); }) && rd.get().ok();
  sim.run();
  return {done, wb.ready() && wc.ready() && all_atomic(cluster)};
}

void run_delta(Json& doc) {
  Section s({"delta", "storage meas", "storage paper", "read comm meas",
             "read comm paper", "atomic", "ok"});
  for (std::size_t delta : {0u, 1u, 2u, 4u, 8u}) {
    const CostRow r{Protocol::kTreas, 6, 4, delta};
    const Costs c = measure_costs(r, delta + 3, 100'000);
    const double bound = (delta + 2.0) * 6.0 / 4.0;
    const std::string name = "E12 delta=" + std::to_string(delta);
    const bool ok = gate(near(c.storage, paper_storage(r)), name + " storage") &
                    gate(c.read <= bound + 0.01, name + " read cost") &
                    gate(c.atomic, name + " atomicity");
    s.add({delta, c.storage, paper_storage(r), c.read, bound, c.atomic, ok});
  }
  s.emit(doc, "e12_delta",
         "E12 (Theorem 3 + Theorem 9): the delta trade-off on TREAS [6,4].");

  Section live({"delta", "retry", "read completes", "paper", "atomic", "ok"});
  for (std::size_t delta : {0u, 2u}) {
    for (bool retry : {false, true}) {
      const auto [done, atomic] = run_stall(delta, retry);
      const bool expect = delta >= 2 || retry;
      const std::string name = "E12 stall delta=" + std::to_string(delta) +
                               (retry ? " retry" : " no-retry");
      const bool ok = gate(done == expect, name + " liveness") &
                      gate(atomic, name + " atomicity");
      live.add({delta, retry ? "on" : "off", done, expect ? "live" : "stalls",
                atomic, ok});
    }
  }
  live.emit(doc, "e12_liveness",
            "Theorem 9: two writers race a reader. delta >= 2 keeps it live;\n"
            "delta = 0 stalls it unless it re-queries. Always atomic.");
}

/// Whether a TREAS [n,k] write completes with `crashes` servers down.
bool write_completes(std::size_t n, std::size_t k, std::size_t crashes) {
  AresCluster cluster(single(Protocol::kTreas, n, k, 4));
  for (std::size_t i = 0; i < crashes; ++i) cluster.crash_server(i);
  auto f = cluster.store(0).write(kDefaultObject, val(128, 1));
  return cluster.sim().run_until([&] { return f.ready(); });
}

void run_ablation(Json& doc) {
  Section s({"n", "k", "k>n/3", "storage n/k", "quorum", "f",
             "live @ f crashes", "blocked @ f+1"});
  for (std::size_t n : {9u, 12u}) {
    for (std::size_t k = 2; k < n; ++k) {
      const std::size_t f = (n - k) / 2, quorum = (n + k + 1) / 2;
      const double cost = static_cast<double>(n) / static_cast<double>(k);
      if (3 * k <= n) {
        s.add({n, k, "no", cost, quorum, f, "-", "-"});
        continue;
      }
      const std::string name = "ablation " + nk(n, k);
      s.add({n, k, "yes", cost, quorum, f,
             gate(write_completes(n, k, f), name + " live at f"),
             gate(!write_completes(n, k, f + 1), name + " blocked at f+1")});
    }
  }
  s.emit(doc, "ablation",
         "Ablation (Theorem 9): the [n,k] design space. Cost falls as 1/k,\n"
         "fault tolerance f = (n-k)/2 with it; liveness needs k > n/3.");
}

/// The fastest and slowest of an action's timed runs.
struct Band {
  SimDuration lo = ~SimDuration{0};
  SimDuration hi = 0;
  void add(SimDuration v) { lo = std::min(lo, v); hi = std::max(hi, v); }
};

/// The default message delay bounds [d, D] every deployment here runs with.
const SimDuration d = AresClusterOptions{}.min_delay;
const SimDuration D = AresClusterOptions{}.max_delay;

void run_latency_bands(Json& doc) {
  Section s({"action", "protocol", "measured min", "measured max", "paper lo",
             "paper hi", "ok"});
  auto add = [&](const std::string& action, const std::string& proto, Band b,
                 SimDuration lo, SimDuration hi) {
    s.add({action, proto, b.lo, b.hi, lo, hi,
           gate(b.lo >= lo && b.hi <= hi,
                "E5-E7 " + action + " " + proto)});
  };
  for (Protocol p : {Protocol::kAbd, Protocol::kTreas}) {
    AresCluster cluster(single(p, 5, 3, 4));
    auto& sim = cluster.sim();
    ProbeClient probe(sim, cluster.net(), 900, cluster.registry(), 0, nullptr);
    const auto& dap = probe.dap_for(kDefaultObject, 0);
    std::map<std::string, Band> bands;
    for (std::uint64_t trial = 1; trial <= 40; ++trial) {
      bands["put-data"].add(
          timed(sim, dap->put_data({Tag{trial, 0}, val(64, 1)})));
      bands["get-tag"].add(timed(sim, dap->get_tag()));
      bands["get-data"].add(timed(sim, dap->get_data()));
      bands["read-next-config"].add(
          timed(sim, probe.read_next_config(kDefaultObject, 0)));
      // Latency only: the entry written is c0's own, so nothing moves.
      bands["put-config"].add(
          timed(sim, probe.put_config(kDefaultObject, 0, {0, false})));
    }
    for (const auto& [action, band] : bands) {
      add(action, dap::protocol_name(p), band, 2 * d, 2 * D);
    }
  }
  // A fresh client (mu = 0) traverses a chain of L configurations.
  for (std::size_t chain = 1; chain <= 6; ++chain) {
    AresCluster cluster(pooled(8, 1, d, D, 1));
    for (std::size_t i = 0; i + 1 < chain; ++i) {
      auto spec = cluster.make_spec(Protocol::kTreas, (i + 1) % 4, 5, 3);
      (void)timed(cluster.sim(), cluster.reconfigurer(0).reconfig(spec));
    }
    ProbeClient probe(cluster.sim(), cluster.net(), 901, cluster.registry(), 0,
                      nullptr);
    const SimDuration took = timed(cluster.sim(), probe.read_config());
    add("read-config", "L=" + std::to_string(chain), Band{took, took},
        4 * d * chain, 4 * D * chain);
  }
  s.emit(doc, "e5_e7_latency_bands",
         "E5-E7 (Lemmas 55/56/58): action latency with per-message delay in\n"
         "[d=10, D=40]. Paper: each action in [2d, 2D]; read-config over L\n"
         "configurations in [4d*L, 4D*L].");
}

void run_reconfig_chain(Json& doc) {
  SimDuration tcn = 0;  // T(CN): one bare consensus decision on c0's servers
  {
    AresCluster cluster(pooled(5, 1, d, d, 1));
    consensus::PaxosProposer proposer(cluster.client(0), 0,
                                      cluster.registry().get(0).servers, 7);
    tcn = timed(cluster.sim(), proposer.propose(1234));
  }
  Section s({"k", "measured T(k)", "paper lower bound", "measured/bound",
             "ok"});
  for (std::size_t k = 1; k <= 8; ++k) {
    // Each install by a fresh reconfigurer that re-traverses the chain.
    AresClusterOptions o = pooled(10, 1, d, d, 1);
    o.num_reconfigurers = k;
    AresCluster cluster(o);
    SimDuration took = 0;
    for (std::size_t i = 0; i < k; ++i) {
      auto spec = cluster.make_spec(Protocol::kTreas, (i + 1) % 5, 5, 3);
      took += timed(cluster.sim(), cluster.reconfigurer(i).reconfig(spec));
    }
    const double kk = static_cast<double>(k);
    const double bound = 4.0 * d * kk * (kk + 1) / 2.0 +
                         kk * (static_cast<double>(tcn) + 2.0 * d);
    s.add({k, took, bound, static_cast<double>(took) / bound,
           gate(took >= bound, "E8 T(" + std::to_string(k) + ") >= bound")});
  }
  s.emit(doc, "e8_reconfig_chain",
         "E8 (Lemma 57): k back-to-back installs, message delay d=10,\n"
         "measured T(CN)=" + std::to_string(tcn) +
             ". Paper: T(k) >= 4d*k(k+1)/2 + k*(T(CN)+2d).");
}

sim::Future<void> install_loop(AresCluster* cluster, int count, bool* done) {
  for (int i = 0; i < count; ++i) {
    auto spec = cluster->make_spec(
        Protocol::kTreas,
        (static_cast<std::size_t>(i) * 3 + 5) % cluster->options().server_pool,
        5, 3);
    auto op = cluster->reconfigurer(0).reconfig(std::move(spec));
    (void)co_await op;
  }
  *done = true;
}

/// One operation of client i racing the installs: whether it finished, its
/// latency, and ν at its end minus µ at its start (Lemma 59's span).
struct Raced { bool finished; SimDuration latency; std::size_t span; };

template <typename Start>
Raced race(AresCluster& cluster, std::size_t i, Start start) {
  cluster.client(i).bind_object(kDefaultObject, 0);
  const std::size_t mu = cluster.client(i).mu();
  const SimTime t0 = cluster.sim().now();
  auto f = start();
  const bool finished =
      cluster.sim().run_until([&] { return f.ready(); }, 4'000'000);
  return {finished, cluster.sim().now() - t0, cluster.client(i).nu() - mu};
}

void run_rw_under_reconfig(Json& doc) {
  Section e9({"R installs", "write latency", "read latency", "nu-mu at end",
              "paper bound 6D(nu-mu+2)", "ok"});
  for (int r : {0, 1, 2, 4, 8}) {
    AresCluster cluster(
        pooled(12, 2, d, D, static_cast<std::uint64_t>(r) + 1));
    bool done = r == 0;
    if (r > 0) sim::detach(install_loop(&cluster, r, &done));
    const Raced w = race(cluster, 0, [&] {
      return cluster.store(0).write(kDefaultObject, val(512, 1));
    });
    const Raced rd =
        race(cluster, 1, [&] { return cluster.store(1).read(kDefaultObject); });
    (void)cluster.sim().run_until([&] { return done; });
    const std::size_t span = std::max(w.span, rd.span);
    const SimDuration bound = 6 * D * (span + 2);
    e9.add({r, w.latency, rd.latency, span, bound,
            gate(w.finished && rd.finished && w.latency <= bound &&
                     rd.latency <= bound,
                 "E9 R=" + std::to_string(r) + " T(op) <= bound")});
  }
  e9.emit(doc, "e9_rw_under_reconfig",
          "E9 (Lemma 59): write/read latency under R concurrent installs,\n"
          "delays in [d=10, D=40]. Paper: T(op) <= 6D*(nu-mu+2).");

  Section e10({"d_fast", "write latency", "configs chased (nu-mu)",
               "terminated"});
  for (SimDuration dfast : {1u, 2u, 5u, 10u, 20u, 40u}) {
    AresCluster cluster(pooled(12, 1, dfast, D, dfast));
    // The reconfigurer (and servers it talks to) fast; the writer slow.
    cluster.net().set_delay_fn(
        sim::biased_delay({cluster.reconfigurer(0).id()}, dfast, D));
    bool done = false;
    sim::detach(install_loop(&cluster, 6, &done));
    const Raced w = race(cluster, 0, [&] {
      return cluster.store(0).write(kDefaultObject, val(256, 2));
    });
    (void)cluster.sim().run_until([&] { return done; });
    e10.add({dfast, w.latency, w.span,
             gate(w.finished, "E10 write at d_fast=" + std::to_string(dfast))});
  }
  e10.emit(doc, "e10_adversarial",
           "E10 (Lemma 60 / Appendix D): reconfiguration traffic at d_fast,\n"
           "client traffic at D=40, 6 installs racing one write.");
}

void run_state_transfer(Json& doc) {
  Section s({"object KB", "[n',k']", "mode", "bytes thru client",
             "server->server fwd", "lists to client", "reconfig latency",
             "ok"});
  for (std::size_t kb : {64u, 256u, 1024u}) {
    for (auto [n2, k2] : {std::pair<std::size_t, std::size_t>{5, 3}, {9, 7}}) {
      for (bool direct : {false, true}) {
        AresClusterOptions o = pooled(16, 1, d, D, 1);
        o.direct_transfer = direct;
        AresCluster cluster(o);
        (void)timed(cluster.sim(),
                    cluster.store(0).write(kDefaultObject, val(kb * 1024, 1)));
        cluster.sim().run();
        cluster.net().reset_stats();
        auto spec = cluster.make_spec(Protocol::kTreas, 5, n2, k2);
        const SimDuration latency =
            timed(cluster.sim(), cluster.reconfigurer(0).reconfig(spec));
        const std::uint64_t through =
            cluster.reconfigurer(0).update_config_bytes_through_client();
        const auto& by_type = cluster.net().stats().data_bytes_by_type;
        auto bytes = [&](const char* t) {
          return by_type.contains(t) ? by_type.at(t) : std::uint64_t{0};
        };
        // ARES-TREAS keeps the object out of the reconfigurer entirely;
        // ARES carrying it there shows the instrument sees the bytes.
        const std::string name = std::to_string(kb) + " KB " + nk(n2, k2);
        const bool ok = direct ? gate(through == 0, "E11 ARES-TREAS " + name)
                               : gate(through >= kb * 1024, "E11 ARES " + name);
        s.add({kb, nk(n2, k2), direct ? "ARES-TREAS" : "ARES", through,
               bytes("treas.fwd_code_elem"), bytes("treas.query_list_reply"),
               latency, ok});
      }
    }
  }
  s.emit(doc, "e11_state_transfer",
         "E11 (Section 5 / Fig. 3): reconfiguration data path [5,3] ->\n"
         "[n',k']. ARES pulls the object through the reconfigurer;\n"
         "ARES-TREAS forwards coded elements server to server.");
}

/// Mean read and write latency with disjoint reader and writer clients.
std::pair<double, double> run_scale(Protocol p, std::size_t n, std::size_t k,
                                    std::size_t readers, std::size_t writers,
                                    std::uint64_t seed) {
  AresClusterOptions o = single(p, n, k, 8);
  o.num_rw_clients = readers + writers;
  o.seed = seed;
  o.treas_retry_timeout = 2000;  // liveness beyond delta, worst case
  AresCluster cluster(o);
  const auto all = cluster.stores();
  auto loop = [&](double write_fraction, std::uint64_t s) {
    return harness::WorkloadOptions{.ops_per_client = 10,
                                    .write_fraction = write_fraction,
                                    .value_size = 65536, .think_max = 30,
                                    .seed = s, .on_op = {}};
  };
  const auto mid = all.begin() + static_cast<std::ptrdiff_t>(readers);
  auto hr = harness::start_workload(cluster.sim(), {all.begin(), mid},
                                    loop(0.0, seed));
  auto hw = harness::start_workload(cluster.sim(), {mid, all.end()},
                                    loop(1.0, seed + 1));
  (void)cluster.sim().run_until([&] { return hr.done() && hw.done(); });
  return {hr.result().mean_latency(false), hw.result().mean_latency(true)};
}

void run_scalability(Json& doc) {
  Section s({"sweep", "n", "k", "readers", "writers", "ABD read", "ABD write",
             "TREAS read", "TREAS write"});
  auto row = [&](const char* sweep, std::size_t n, std::size_t k,
                 std::size_t readers, std::size_t writers, std::uint64_t seed) {
    const auto [ar, aw] =
        run_scale(Protocol::kAbd, n, 1, readers, writers, seed);
    const auto [tr, tw] =
        run_scale(Protocol::kTreas, n, k, readers, writers, seed);
    s.add({sweep, n, k, readers, writers, ar, aw, tr, tw});
  };
  for (std::size_t r : {1u, 2u, 4u, 8u, 16u}) row("readers", 5, 3, r, 2, r);
  for (std::size_t w : {1u, 2u, 4u, 8u}) row("writers", 5, 3, 4, w, w + 10);
  for (std::size_t n : {3u, 5u, 7u, 9u, 11u}) {
    row("servers", n, (2 * n + 2) / 3, 4, 2, n + 20);  // k = ceil(2n/3)
  }
  s.emit(doc, "e13_scalability",
         "E13: mean latency vs readers, writers and servers (64 KiB objects,\n"
         "delays U[10,40]). Reported only: the paper states no bound.");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_paper.json";
  Json doc;
  doc.set("bench", "paper");
  for (auto* run : {run_storage, run_comm, run_delta, run_ablation,
                    run_latency_bands, run_reconfig_chain,
                    run_rw_under_reconfig, run_state_transfer,
                    run_scalability}) {
    run(doc);
  }
  doc.set("failed_gates", g_failed_gates);
  harness::write_json_file(out_path, doc);
  if (g_failed_gates > 0) {
    std::printf("FAIL: %d gate(s) failed\n", g_failed_gates);
    return 1;
  }
  std::printf("\nAll paper gates pass.\n");
  return 0;
}
