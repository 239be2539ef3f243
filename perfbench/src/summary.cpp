#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace

Summary summarize(const std::vector<OpLog>& ops, Phase phase,
                  double elapsed_s) {
  std::vector<double> lat[3], rounds[3], msgs[3], bytes[3], elided;
  Summary s;
  for (const OpLog& op : ops) {
    if (op.phase != phase || !op.ok) continue;
    ++s.ops;
    const auto c = static_cast<std::size_t>(op.cls);
    lat[c].push_back(static_cast<double>(op.latency_ns) / 1e3);
    rounds[c].push_back(static_cast<double>(op.rounds));
    msgs[c].push_back(static_cast<double>(op.messages));
    bytes[c].push_back(static_cast<double>(op.bytes));
    elided.push_back(static_cast<double>(op.elided));
  }
  constexpr auto kR = static_cast<std::size_t>(OpClass::kRead);
  constexpr auto kW = static_cast<std::size_t>(OpClass::kWrite);
  constexpr auto kB = static_cast<std::size_t>(OpClass::kBatch);
  s.read_p50_us = percentile(lat[kR], 50);
  s.read_p90_us = percentile(lat[kR], 90);
  s.read_p99_us = percentile(lat[kR], 99);
  s.write_p50_us = percentile(lat[kW], 50);
  s.write_p90_us = percentile(lat[kW], 90);
  s.write_p99_us = percentile(lat[kW], 99);
  s.batch_p50_us = percentile(lat[kB], 50);
  s.read_rounds = mean(rounds[kR]);
  s.write_rounds = mean(rounds[kW]);
  s.batch_rounds_per_member = mean(rounds[kB]);
  s.read_msgs = mean(msgs[kR]);
  s.write_msgs = mean(msgs[kW]);
  s.read_bytes = mean(bytes[kR]);
  s.write_bytes = mean(bytes[kW]);
  s.elided_per_op = mean(elided);
  s.ops_per_s = elapsed_s > 0 ? static_cast<double>(s.ops) / elapsed_s : 0;
  return s;
}

Summary median_of(const std::vector<Summary>& parts) {
  Summary out;
  auto med = [&](double Summary::*field) {
    std::vector<double> v;
    for (const Summary& p : parts) v.push_back(p.*field);
    out.*field = percentile(std::move(v), 50);
  };
  for (const Summary& p : parts) out.ops += p.ops;
  for (double Summary::*f :
       {&Summary::ops_per_s, &Summary::read_p50_us, &Summary::read_p90_us,
        &Summary::read_p99_us, &Summary::write_p50_us, &Summary::write_p90_us,
        &Summary::write_p99_us, &Summary::batch_p50_us,
        &Summary::read_rounds, &Summary::write_rounds,
        &Summary::batch_rounds_per_member, &Summary::read_msgs,
        &Summary::write_msgs, &Summary::read_bytes, &Summary::write_bytes,
        &Summary::elided_per_op}) {
    med(f);
  }
  return out;
}

void put_end_to_end(Report& r, const Summary& s, double setup_s) {
  r.set("ops_per_s", s.ops_per_s, "1/s");
  r.set("setup_s", setup_s, "s");
  r.set("read_p50_us", s.read_p50_us, "us");
  r.set("read_p90_us", s.read_p90_us, "us");
  r.set("write_p50_us", s.write_p50_us, "us");
  r.set("write_p90_us", s.write_p90_us, "us");
  r.set("batch_p50_us", s.batch_p50_us, "us");
}

void put_tail_latency(Report& r, const Summary& s) {
  r.set("api.read_p99_us", s.read_p99_us, "us");
  r.set("api.write_p99_us", s.write_p99_us, "us");
}

void put_protocol_costs(Report& r, const Summary& s) {
  r.set("ares.read_rounds", s.read_rounds, "count");
  r.set("ares.write_rounds", s.write_rounds, "count");
  r.set("ares.batch_rounds_per_member", s.batch_rounds_per_member, "count");
  r.set("ares.read_msgs", s.read_msgs, "count");
  r.set("ares.write_msgs", s.write_msgs, "count");
  r.set("ares.read_bytes", s.read_bytes, "B");
  r.set("ares.write_bytes", s.write_bytes, "B");
  r.set("ares.elided_rounds_per_op", s.elided_per_op, "count");
}

void put_idle_latency(Report& r, const std::vector<OpLog>& ops, Phase phase) {
  std::vector<double> reads, writes;
  for (const OpLog& op : ops) {
    if (op.phase != phase || !op.ok) continue;
    (op.is_write() ? writes : reads)
        .push_back(static_cast<double>(op.latency_ns) / 1e3);
  }
  r.set("api.idle_read_us", percentile(reads, 50), "us");
  r.set("api.idle_write_us", percentile(writes, 50), "us");
}

void put_self_times(Report& r, const std::vector<Span>& spans,
                    std::size_t ops) {
  const auto self = self_times(spans);
  auto mean_self_us = [&](std::initializer_list<const char*> names) {
    double ns = 0;
    for (const char* n : names) {
      auto it = self.find(n);
      if (it != self.end()) ns += it->second.self_ns;
    }
    return ops ? ns / 1e3 / static_cast<double>(ops) : 0;
  };
  r.set("trace.api_self_us_per_op",
        mean_self_us({"api.read", "api.write", "api.read_batch"}), "us");
  r.set("trace.bench_self_us_per_op",
        mean_self_us({"op", "bench.make_value", "bench.verify"}), "us");
}

void put_unit_costs(Report& r, const Mix& mix, bool abd, bool treas) {
  std::vector<ares::sim::BodyPtr> shapes;
  if (abd) shapes = abd_shapes(mix.value_size, mix.batch);
  if (treas) {
    for (auto& b : treas_shapes(mix.value_size)) shapes.push_back(b);
  }
  const WireCost wire = wire_cost(shapes);
  r.set("net.wire.encode_ns", wire.encode_ns, "ns");
  r.set("net.wire.decode_ns", wire.decode_ns, "ns");
  const CodecCost codec = codec_cost(mix.value_size);
  r.set("codec.encode_us", codec.encode_us, "us");
  r.set("codec.decode_us", codec.decode_us, "us");
  r.set("storage.wal_append_us", wal_append_us(mix.value_size, !abd), "us");
}

}  // namespace perfbench
