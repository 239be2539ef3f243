#include "layers.hpp"

#include "abd/messages.hpp"
#include "codec/codec.hpp"
#include "common.hpp"
#include "dap/messages.hpp"
#include "net/wire.hpp"
#include "storage/device.hpp"
#include "storage/wal.hpp"
#include "treas/messages.hpp"

#include <algorithm>
#include <memory>

namespace perfbench {

using namespace ares;

namespace {

/// Median over 5 slices of the mean ns per call of `fn`, each slice
/// running for at least `slice_ns`.
template <typename Fn>
double time_per_call_ns(Fn&& fn, std::int64_t slice_ns = 20'000'000) {
  std::vector<double> slices;
  for (int s = 0; s < 5; ++s) {
    std::uint64_t calls = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = t0;
    while (t1 - t0 < slice_ns) {
      fn();
      ++calls;
      t1 = now_ns();
    }
    slices.push_back(static_cast<double>(t1 - t0) /
                     static_cast<double>(calls));
  }
  return percentile(std::move(slices), 50);
}

ValuePtr shape_value(std::size_t size) { return make_value(7, 0, 1, size); }

template <typename T>
std::shared_ptr<T> request(ObjectId obj) {
  auto m = std::make_shared<T>();
  m->rpc_id = 12345;
  m->config = 3;
  m->object = obj;
  m->confirmed_hint = Tag{41, 101};
  return m;
}

template <typename T>
std::shared_ptr<T> reply() {
  auto m = std::make_shared<T>();
  m->rpc_id = 12345;
  return m;
}

}  // namespace

std::vector<sim::BodyPtr> abd_shapes(std::size_t value_size,
                                     std::size_t batch) {
  const ValuePtr v = shape_value(value_size);
  std::vector<sim::BodyPtr> out;
  out.push_back(request<abd::QueryReq>(17));
  auto qr = reply<abd::QueryReply>();
  qr->tag = Tag{42, 101};
  qr->value = v;
  qr->confirmed = Tag{41, 101};
  out.push_back(qr);
  auto wr = request<abd::WriteReq>(17);
  wr->tag = Tag{43, 102};
  wr->value = v;
  out.push_back(wr);
  out.push_back(reply<abd::WriteAck>());
  if (batch > 0) {
    auto bq = request<dap::QueryBatchReq>(0);
    auto br = reply<dap::QueryBatchReply>();
    for (std::size_t i = 0; i < batch; ++i) {
      const auto obj = static_cast<ObjectId>(17 + i * 31);
      bq->objects.push_back(obj);
      bq->confirmed_hints.push_back(Tag{41, 101});
      br->items.push_back(
          dap::BatchQueryItem{obj, Tag{42, 101}, v, Tag{41, 101}, {}, 0});
    }
    out.push_back(bq);
    out.push_back(br);
  }
  return out;
}

std::vector<sim::BodyPtr> treas_shapes(std::size_t value_size) {
  const auto codec = codec::make_codec(5, 3);
  const auto frags = codec->encode(*shape_value(value_size));
  std::vector<sim::BodyPtr> out;
  out.push_back(request<treas::QueryListReq>(17));
  auto lr = reply<treas::QueryListReply>();
  lr->list.push_back(treas::ListEntry{Tag{41, 101}, std::nullopt});
  lr->list.push_back(treas::ListEntry{Tag{42, 101}, frags[1]});
  lr->confirmed = Tag{41, 101};
  out.push_back(lr);
  auto put = request<treas::PutReq>(17);
  put->tag = Tag{43, 102};
  put->fragment = frags[1];
  out.push_back(put);
  out.push_back(reply<treas::PutAck>());
  return out;
}

WireCost wire_cost(const std::vector<sim::BodyPtr>& shapes) {
  WireCost cost;
  for (const auto& body : shapes) {
    const auto frame = net::wire::encode_frame(100, 0, *body);
    cost.encode_ns += time_per_call_ns([&] {
      auto bytes = net::wire::encode_frame(100, 0, *body);
      if (bytes.size() != frame.size()) std::abort();
    });
    cost.decode_ns += time_per_call_ns([&] {
      auto decoded = net::wire::decode_frame(frame.data() + 4, frame.size() - 4);
      if (!decoded.body) std::abort();
    });
  }
  cost.encode_ns /= static_cast<double>(shapes.size());
  cost.decode_ns /= static_cast<double>(shapes.size());
  return cost;
}

CodecCost codec_cost(std::size_t value_size) {
  const auto codec = codec::make_codec(5, 3);
  const ValuePtr v = shape_value(value_size);
  const auto frags = codec->encode(*v);
  const std::vector<codec::Fragment> subset = {frags[0], frags[2], frags[4]};
  if (codec->decode(subset) != *v) std::abort();
  CodecCost cost;
  cost.encode_us = time_per_call_ns([&] {
                     auto f = codec->encode(*v);
                     if (f.size() != 5) std::abort();
                   }) /
                   1e3;
  cost.decode_us = time_per_call_ns([&] {
                     auto d = codec->decode(subset);
                     if (!d) std::abort();
                   }) /
                   1e3;
  return cost;
}

double wal_append_us(std::size_t value_size, bool fragment) {
  storage::ServerJournal journal(std::make_shared<storage::MemDevice>(), {});
  journal.set_snapshot_source([](const storage::ServerJournal::RecordSink&) {});
  const ValuePtr v = shape_value(value_size);
  std::optional<codec::Fragment> frag;
  if (fragment) frag = codec::make_codec(5, 3)->encode(*v)[1];
  std::uint64_t z = 0;
  return time_per_call_ns([&] {
           ++z;
           journal.put(3, static_cast<ObjectId>(z % 64), Tag{z, 101},
                       fragment ? nullptr : v, frag);
         }) /
         1e3;
}

}  // namespace perfbench
