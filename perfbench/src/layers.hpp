// Per-layer costs measured by calling each module's public functions on a
// workload's own shapes: the wire codec on its request and reply messages,
// the RS [5,3] codec and a WAL append at its value size.
#pragma once

#include "sim/message.hpp"

#include <cstddef>
#include <vector>

namespace perfbench {

/// The request/reply messages one workload's operations put on the wire.
/// ABD shapes: scalar query/write and their replies, plus a batched query
/// of `batch` members and its reply (batch 0 = no batch shapes). TREAS
/// shapes: list query, put of one [5,3] fragment, and their replies.
std::vector<ares::sim::BodyPtr> abd_shapes(std::size_t value_size,
                                           std::size_t batch);
std::vector<ares::sim::BodyPtr> treas_shapes(std::size_t value_size);

/// Mean ns to encode a frame / decode a frame, averaged over `shapes`
/// (each shape weighs the same).
struct WireCost {
  double encode_ns = 0;
  double decode_ns = 0;
};
WireCost wire_cost(const std::vector<ares::sim::BodyPtr>& shapes);

/// Mean µs of one RS [5,3] encode of a `value_size` value, and of one
/// decode from fragments {0, 2, 4} (one of them parity).
struct CodecCost {
  double encode_us = 0;
  double decode_us = 0;
};
CodecCost codec_cost(std::size_t value_size);

/// Mean µs of one ServerJournal::put on an in-memory device: a whole value
/// (ABD) or one [5,3] fragment of it (TREAS).
double wal_append_us(std::size_t value_size, bool fragment);

}  // namespace perfbench
