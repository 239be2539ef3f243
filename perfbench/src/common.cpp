#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

namespace perfbench {

namespace {

constexpr std::size_t kHeaderBytes = 12;

std::uint64_t stream_seed(std::uint64_t seed, std::uint32_t client,
                          std::uint64_t seq) {
  return mix64(mix64(seed) ^ mix64((std::uint64_t{client} << 40) ^ seq));
}

/// Fill `out[0..n)` with the stream for `s`, 8 bytes per step.
void fill_stream(std::uint8_t* out, std::size_t n, std::uint64_t s) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    s += 0x9E3779B97F4A7C15ULL;
    const std::uint64_t w = mix64(s);
    std::memcpy(out + i, &w, 8);
  }
  if (i < n) {
    s += 0x9E3779B97F4A7C15ULL;
    const std::uint64_t w = mix64(s);
    std::memcpy(out + i, &w, n - i);
  }
}

}  // namespace

ares::ValuePtr make_value(std::uint64_t seed, std::uint32_t client,
                          std::uint64_t seq, std::size_t size) {
  auto v = std::make_shared<ares::Value>(std::max(size, kHeaderBytes));
  std::memcpy(v->data(), &client, 4);
  std::memcpy(v->data() + 4, &seq, 8);
  fill_stream(v->data() + kHeaderBytes, v->size() - kHeaderBytes,
              stream_seed(seed, client, seq));
  return v;
}

ValueId identify_value(std::uint64_t seed, const ares::Value* v,
                       std::size_t size) {
  if (v == nullptr || v->empty()) return kInitialValueId;
  if (v->size() != std::max(size, kHeaderBytes)) return kCorruptValueId;
  std::uint32_t client = 0;
  std::uint64_t seq = 0;
  std::memcpy(&client, v->data(), 4);
  std::memcpy(&seq, v->data() + 4, 8);
  if (client >= (1u << 15) || seq >= (std::uint64_t{1} << 48)) {
    return kCorruptValueId;
  }
  // Compare in 4 KiB chunks so a 64 KiB value needs no second buffer.
  std::uint8_t chunk[4096];
  std::uint64_t s = stream_seed(seed, client, seq);
  const std::size_t body = v->size() - kHeaderBytes;
  for (std::size_t off = 0; off < body; off += sizeof chunk) {
    const std::size_t n = std::min(sizeof chunk, body - off);
    fill_stream(chunk, n, s);
    s += 0x9E3779B97F4A7C15ULL * (sizeof chunk / 8);
    if (std::memcmp(chunk, v->data() + kHeaderBytes + off, n) != 0) {
      return kCorruptValueId;
    }
  }
  return value_id(client, seq);
}

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  const std::size_t k = std::min(std::max<std::size_t>(rank, 1), v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    char num[64];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
