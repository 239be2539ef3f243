// Spans recorded by the benchmark's own code around its calls into each
// layer (name, start, end, parent, one id per operation). A Tracer belongs
// to one thread; spans stay in memory and are written out at the end.
#pragma once

#include "common.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t op = 0;      // operation the span belongs to
  std::uint64_t id = 0;      // unique across all tracers of a run
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t start = 0;
  std::int64_t end = 0;
};

class Tracer {
 public:
  /// `lane` keeps span ids of different threads apart.
  explicit Tracer(std::uint32_t lane) : next_id_((std::uint64_t{lane} << 40) + 1) {}

  /// Opens a span and returns its index (pass to close()).
  std::size_t open(const char* name, std::uint64_t op, std::uint64_t parent) {
    spans_.push_back(Span{name, op, next_id_++, parent, now_ns(), 0});
    return spans_.size() - 1;
  }
  void close(std::size_t index) { spans_[index].end = now_ns(); }
  [[nodiscard]] std::uint64_t id(std::size_t index) const {
    return spans_[index].id;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; does nothing
/// when `tracer` is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t op,
             std::uint64_t parent = 0)
      : tracer_(tracer),
        index_(tracer ? tracer->open(name, op, parent) : 0) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const {
    return tracer_ ? tracer_->id(index_) : 0;
  }

 private:
  Tracer* tracer_;
  std::size_t index_;
};

/// Per span name: how many spans, and their total and self time (duration
/// minus the part covered by child spans).
struct SelfTime {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};

std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans);

/// Writes `spans` as CSV (name,op,id,parent,start_ns,end_ns) and the
/// self-time table plus `extra` (a JSON object body) as JSON, into
/// `dir`/<stem>.spans.csv and `dir`/<stem>.summary.json. Returns the
/// summary path, or "" if the files could not be written.
std::string write_trace(const std::string& dir, const std::string& stem,
                        const std::vector<Span>& spans,
                        const std::string& extra);

}  // namespace perfbench
