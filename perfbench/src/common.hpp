// Shared pieces of the benchmark: command-line options, the seeded value
// generator, the per-operation log the correctness checks read, and the
// metric report printed as the last line of standard output.
#pragma once

#include "common/random.hpp"
#include "common/types.hpp"

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using ares::Rng;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

/// Monotonic nanoseconds (steady_clock), the benchmark's only clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 finalizer: the mixing step behind every derived stream.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Identity of a written value: the writer's client index and its
/// per-client write sequence number. kInitialValueId names the register's
/// initial (empty) value.
using ValueId = std::uint64_t;
inline constexpr ValueId kInitialValueId = std::numeric_limits<ValueId>::max();
inline constexpr ValueId kCorruptValueId = kInitialValueId - 1;

inline ValueId value_id(std::uint32_t client, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(client) << 48) | seq;
}

/// The value client `client` writes as its `seq`-th write: a 12-byte
/// header (client, seq) followed by a byte stream derived from
/// (seed, client, seq). Every written value is therefore unique and every
/// byte of it can be recomputed from its header alone.
ares::ValuePtr make_value(std::uint64_t seed, std::uint32_t client,
                          std::uint64_t seq, std::size_t size);

/// The id of the value `v` if every byte equals what make_value produces
/// for the (client, seq) in its header and its size is `size`;
/// kInitialValueId for the empty initial value; kCorruptValueId otherwise.
ValueId identify_value(std::uint64_t seed, const ares::Value* v,
                       std::size_t size);

/// Operation classes the end-to-end latencies are split by.
enum class OpClass : std::uint8_t { kRead, kWrite, kBatch };

/// Phases of a run; only kMeasured (and kTraced in a traced run) feed the
/// reported figures, but every phase's operations are checked.
enum class Phase : std::uint8_t { kSetup, kWarmup, kMeasured, kTraced, kIdle };

/// One object operation as the benchmark saw it (a batch contributes one
/// entry per member, all sharing the batch's interval). start/end bracket
/// the call into the system: taken before the call and after it returns,
/// in steady-clock ns on the TCP backend and as a logical clock ticked by
/// the single simulator thread on the sim backend. latency_ns is always
/// wall-clock time.
struct OpLog {
  ares::ObjectId object = 0;
  OpClass cls = OpClass::kRead;
  bool ok = true;
  Phase phase = Phase::kSetup;
  ValueId value = kInitialValueId;  // written or returned value
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t latency_ns = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t elided = 0;

  [[nodiscard]] bool is_write() const { return cls == OpClass::kWrite; }
};

/// Percentile (0 < pct <= 100) by nearest rank; 0 for an empty sample.
double percentile(std::vector<double> v, double pct);

/// Name -> (value, unit), printed in insertion-independent (sorted) order.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // why `correct` is false
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  /// The result: one JSON line, printed last on standard output.
  [[nodiscard]] std::string json() const;
};

}  // namespace perfbench
