// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Runs one workload and prints, as the last line of standard output, one
// JSON object {correct, attempted, failed, metrics}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 a separate traced run
// reports the per-layer ones and writes its spans under DIR. Problems found
// by the correctness checks go to standard error.
#include "common.hpp"
#include "workloads.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},    {"setup_s", "s"},         {"read_p50_us", "us"},
    {"read_p90_us", "us"},   {"write_p50_us", "us"},   {"write_p90_us", "us"},
    {"batch_p50_us", "us"},
};

// The per-layer metrics of every workload (BENCHMARK.json's per_layer). A
// layer a workload does not cross reads 0 there (e.g. reconfiguration on the
// static workloads; sim.* and the WAL on TCP, whose servers do not journal).
constexpr MetricDef kPerLayer[] = {
    {"ares.read_rounds", "count"},
    {"ares.write_rounds", "count"},
    {"ares.batch_rounds_per_member", "count"},
    {"ares.reconfig_rounds", "count"},
    {"ares.reconfig_msgs", "count"},
    {"ares.read_msgs", "count"},
    {"ares.write_msgs", "count"},
    {"ares.elided_rounds_per_op", "count"},
    {"ares.read_bytes", "B"},
    {"ares.write_bytes", "B"},
    {"reconfig_per_s", "1/s"},
    {"api.idle_read_us", "us"},
    {"api.idle_write_us", "us"},
    {"api.read_p99_us", "us"},
    {"api.write_p99_us", "us"},
    {"net.wire.encode_ns", "ns"},
    {"net.wire.decode_ns", "ns"},
    {"codec.encode_us", "us"},
    {"codec.decode_us", "us"},
    {"sim.events_per_op", "count"},
    {"sim.ns_per_event", "ns"},
    {"storage.wal_bytes_per_op", "B"},
    {"storage.wal_append_us", "us"},
    {"storage.stored_bytes_per_object", "B"},
    {"trace.ops_per_s_untraced", "1/s"},
    {"trace.ops_per_s_traced", "1/s"},
    {"trace.overhead_pct", "%"},
    {"trace.api_self_us_per_op", "us"},
    {"trace.bench_self_us_per_op", "us"},
};

// Transport layers only the TCP workloads cross, added to their traced runs.
constexpr MetricDef kTcpLayer[] = {
    {"net.frames_per_op", "count"},
    {"net.queue_depth_p99", "count"},
    {"net.retransmits", "count"},
    {"net.frames_dropped", "count"},
    {"net.runtime.enter_us_p50", "us"},
    {"net.runtime.enter_us_p99", "us"},
};

const TcpShape kTcpAbdMixed{
    .protocol = ares::dap::Protocol::kAbd, .servers = 3, .k = 1,
    .mix = {.objects = 1024, .value_size = 256, .write_frac = 0.3,
            .batch_frac = 0.1, .batch = 8}};

const TcpShape kTcpTreasLarge{
    .protocol = ares::dap::Protocol::kTreas, .servers = 5, .k = 3,
    .mix = {.objects = 64, .value_size = 64 * 1024, .write_frac = 0.5,
            .batch_frac = 0.1, .batch = 4}};

// The simulator twins of the TCP workloads (same protocol, keys, values
// and mix, no transport), and the reconfiguration churn workload.
const SimShape kSimAbdMixed{
    .protocol = ares::dap::Protocol::kAbd, .servers = 3, .k = 1,
    .clients = kTcpClients, .ops_per_client = 2000, .reconfig = false,
    .mix = kTcpAbdMixed.mix};

const SimShape kSimTreasLarge{
    .protocol = ares::dap::Protocol::kTreas, .servers = 5, .k = 3,
    .clients = kTcpClients, .ops_per_client = 150, .reconfig = false,
    .mix = kTcpTreasLarge.mix};

const SimShape kSimReconfigChurn{
    .protocol = ares::dap::Protocol::kTreas, .servers = 5, .k = 3,
    .clients = 4, .ops_per_client = 1000, .reconfig = true,
    .mix = {.objects = 16, .value_size = 1024, .write_frac = 0.5,
            .batch_frac = 0.1, .batch = 8}};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sim_abd_mixed|sim_treas_large|sim_reconfig_churn|"
               "tcp_abd_mixed|tcp_treas_large --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') usage("--seed must be an integer");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 600) {
        usage("--seconds must be in (0, 600]");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      a.trace = val == "1";
    } else if (key == "--out") {
      a.out_dir = val;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Report report;
  try {
    if (args.workload == "tcp_abd_mixed") {
      report = run_tcp(args, kTcpAbdMixed);
    } else if (args.workload == "tcp_treas_large") {
      report = run_tcp(args, kTcpTreasLarge);
    } else if (args.workload == "sim_abd_mixed") {
      report = run_sim(args, kSimAbdMixed);
    } else if (args.workload == "sim_treas_large") {
      report = run_sim(args, kSimTreasLarge);
    } else if (args.workload == "sim_reconfig_churn") {
      report = run_sim(args, kSimReconfigChurn);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  // Print exactly the metric set of this mode.
  Report out = report;
  out.metrics.clear();
  std::vector<MetricDef> defs(std::begin(kEndToEnd), std::end(kEndToEnd));
  if (args.trace) {
    defs.assign(std::begin(kPerLayer), std::end(kPerLayer));
    if (args.workload.starts_with("tcp_")) {
      defs.insert(defs.end(), std::begin(kTcpLayer), std::end(kTcpLayer));
    }
  }
  for (const MetricDef& m : defs) {
    auto it = report.metrics.find(m.name);
    if (it == report.metrics.end()) {
      if (!args.trace) out.fail(std::string("metric not measured: ") + m.name);
      out.set(m.name, 0, m.unit);
    } else {
      if (it->second.second != m.unit) {
        out.fail(std::string("metric unit mismatch: ") + m.name);
      }
      out.set(m.name, it->second.first, m.unit);
    }
  }
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  std::fflush(stderr);
  std::printf("%s\n", out.json().c_str());
  return 0;
}
