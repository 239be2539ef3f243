// Correctness checks that do not trust the implementation: they read only
// the bytes each operation returned and the interval the benchmark took
// around each call, never the tags the protocol reports.
#pragma once

#include "common.hpp"

#include <string>
#include <vector>

namespace perfbench {

/// One register operation for the linearizability check. A write that
/// never responded has end == kNever.
struct LinOp {
  ares::ObjectId object = 0;
  bool write = false;
  ValueId value = kInitialValueId;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

inline constexpr std::int64_t kNever = INT64_MAX;

/// Register linearizability of a history with unique written values, by
/// Gibbons & Korach's zones ("Testing Shared Memories", SIAM J. Comput.
/// 1997). Per object, every value's cluster (its write and the reads that
/// returned it) spans a zone from its earliest response to its latest
/// invocation: a forward zone when the earliest response precedes the
/// latest invocation, a backward zone otherwise. The history is
/// linearizable iff every read returns a value written to its object (or
/// the initial value) by a write that did not start after the read ended,
/// no two forward zones overlap, and no backward zone lies inside a forward
/// zone. O(n log n). Returns "" when linearizable, else the first violation.
std::string check_linearizable(std::vector<LinOp> ops);

/// Runs check_linearizable on hand-built histories: a linearizable one it
/// must accept, and a stale read, a new-old inversion, a read from the
/// future, an initial value read after a completed write and a read of a
/// value written to another object, which it must reject. Returns "" when
/// every verdict is right.
std::string lincheck_self_test();

/// Every check over a workload's log: a read whose bytes did not match a
/// written value, then check_linearizable over all operations (failed
/// writes count as never responding, failed reads are dropped). Each
/// problem found is added to `report`.
void check_history(const std::vector<OpLog>& ops, Report& report);

}  // namespace perfbench
