#include "check.hpp"

#include <algorithm>
#include <unordered_map>

namespace perfbench {

namespace {

/// "v0", or "client/seq" of a written value.
std::string value_name(ValueId v) {
  return v == kInitialValueId
             ? std::string("v0")
             : std::to_string(v >> 48) + "/" +
                   std::to_string(v & ((std::uint64_t{1} << 48) - 1));
}

std::string describe(const LinOp& op) {
  std::string s = op.write ? "write" : "read";
  s += " of object " + std::to_string(op.object) + " value " +
       value_name(op.value);
  s += " [" + std::to_string(op.start) + ", " +
       (op.end == kNever ? std::string("never") : std::to_string(op.end)) +
       "]";
  return s;
}

struct Zone {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  ValueId value = 0;
};

/// One object's sub-history, `ops[first, last)`.
std::string check_object(const std::vector<LinOp>& ops, std::size_t first,
                         std::size_t last) {
  struct Cluster {
    std::int64_t min_end = kNever;
    std::int64_t max_start = INT64_MIN;
    const LinOp* write = nullptr;
  };
  std::unordered_map<ValueId, Cluster> clusters;
  // The initial value behaves as a write that finished before anything.
  clusters[kInitialValueId] = Cluster{INT64_MIN, INT64_MIN, nullptr};
  for (std::size_t i = first; i < last; ++i) {
    if (!ops[i].write) continue;
    if (ops[i].value == kInitialValueId) return "write of v0: " + describe(ops[i]);
    auto [it, fresh] = clusters.try_emplace(ops[i].value);
    if (!fresh) return "value written twice: " + describe(ops[i]);
    it->second = Cluster{ops[i].end, ops[i].start, &ops[i]};
  }
  for (std::size_t i = first; i < last; ++i) {
    const LinOp& r = ops[i];
    if (r.write) continue;
    auto it = clusters.find(r.value);
    if (it == clusters.end()) {
      return "read returned a value never written to its object: " +
             describe(r);
    }
    Cluster& c = it->second;
    if (c.write != nullptr && r.end < c.write->start) {
      return "read returned a value from the future: " + describe(r) +
             " before " + describe(*c.write);
    }
    c.min_end = std::min(c.min_end, r.end);
    c.max_start = std::max(c.max_start, r.start);
  }

  std::vector<Zone> forward;
  std::vector<Zone> backward;
  for (const auto& [value, c] : clusters) {
    if (c.min_end < c.max_start) {
      forward.push_back({c.min_end, c.max_start, value});
    } else {
      backward.push_back({c.max_start, c.min_end, value});
    }
  }
  std::sort(forward.begin(), forward.end(),
            [](const Zone& a, const Zone& b) { return a.lo < b.lo; });
  // Sorted by low end, some pair overlaps iff some adjacent pair does.
  for (std::size_t i = 1; i < forward.size(); ++i) {
    if (forward[i].lo < forward[i - 1].hi) {
      return "overlapping forward zones of values " +
             value_name(forward[i - 1].value) + " and " + value_name(forward[i].value) +
             " on object " + std::to_string(ops[first].object);
    }
  }
  // Forward zones are now disjoint: only the last one starting before a
  // backward zone can contain it.
  for (const Zone& b : backward) {
    auto it = std::lower_bound(
        forward.begin(), forward.end(), b.lo,
        [](const Zone& z, std::int64_t lo) { return z.lo < lo; });
    if (it == forward.begin()) continue;
    --it;
    if (b.hi < it->hi) {
      return "backward zone of value " + value_name(b.value) +
             " inside forward zone of value " + value_name(it->value) +
             " on object " + std::to_string(ops[first].object);
    }
  }
  return "";
}

}  // namespace

std::string check_linearizable(std::vector<LinOp> ops) {
  std::stable_sort(ops.begin(), ops.end(),
                   [](const LinOp& a, const LinOp& b) {
                     return a.object < b.object;
                   });
  for (std::size_t first = 0; first < ops.size();) {
    std::size_t last = first;
    while (last < ops.size() && ops[last].object == ops[first].object) ++last;
    std::string why = check_object(ops, first, last);
    if (!why.empty()) return why;
    first = last;
  }
  return "";
}

std::string lincheck_self_test() {
  const ValueId a = value_id(0, 1);
  const ValueId b = value_id(1, 1);
  auto w = [](ValueId v, std::int64_t s, std::int64_t e) {
    return LinOp{0, true, v, s, e};
  };
  auto r = [](ValueId v, std::int64_t s, std::int64_t e) {
    return LinOp{0, false, v, s, e};
  };
  struct Case {
    const char* name;
    bool linearizable;
    std::vector<LinOp> ops;
  };
  const std::vector<Case> cases = {
      {"concurrent read/write history", true,
       {r(kInitialValueId, 0, 5), w(a, 2, 10), r(a, 8, 20), w(b, 15, 30),
        r(a, 16, 18), r(b, 25, 40), w(value_id(2, 1), 50, kNever)}},
      {"stale read", false, {w(a, 0, 10), w(b, 20, 30), r(a, 40, 50)}},
      {"new-old inversion", false,
       {w(a, 0, 10), w(b, 20, 100), r(b, 30, 40), r(a, 50, 60)}},
      {"read from the future", false, {r(a, 0, 10), w(a, 20, 30)}},
      {"initial value after a completed write", false,
       {w(a, 0, 10), r(kInitialValueId, 20, 30)}},
      {"value of another object", false,
       {LinOp{1, true, a, 0, 10}, r(a, 20, 30)}},
  };
  for (const Case& c : cases) {
    const bool accepted = check_linearizable(c.ops).empty();
    if (accepted != c.linearizable) {
      return std::string("linearizability self-test: ") +
             (accepted ? "accepted " : "rejected ") + c.name;
    }
  }
  return "";
}

void check_history(const std::vector<OpLog>& ops, Report& report) {
  std::vector<LinOp> lin;
  lin.reserve(ops.size());
  std::size_t corrupt = 0;
  for (const OpLog& op : ops) {
    if (!op.is_write() && op.ok && op.value == kCorruptValueId) ++corrupt;
    if (!op.ok && !op.is_write()) continue;
    lin.push_back(LinOp{op.object, op.is_write(), op.value, op.start,
                        op.ok ? op.end : kNever});
  }
  if (corrupt > 0) {
    report.fail(std::to_string(corrupt) +
                " reads returned bytes that match no written value");
    return;
  }
  const std::string why = check_linearizable(std::move(lin));
  if (!why.empty()) report.fail("not linearizable: " + why);
}

}  // namespace perfbench
