#include "comm/broker.h"

#include <algorithm>
#include <set>

#include "common/clock.h"
#include "common/log.h"
#include "common/thread_util.h"
#include "obs/profiler.h"
#include "serial/wire_format.h"

namespace xt {
namespace {

/// Warn about drops at most this often (satellite: no per-message spam).
constexpr std::int64_t kDropWarnIntervalNs = 5'000'000'000;  // 5 s

std::string machine_label(const char* base, std::uint16_t machine) {
  return std::string(base) + "{machine=\"" + std::to_string(machine) + "\"}";
}

std::string drop_label(std::uint16_t machine, DropReason reason) {
  return std::string("xt_broker_dropped_total{machine=\"") +
         std::to_string(machine) + "\",reason=\"" +
         drop_reason_name(reason) + "\"}";
}

std::string shard_label(const char* base, std::uint16_t machine,
                        std::uint32_t shard) {
  return std::string(base) + "{machine=\"" + std::to_string(machine) +
         "\",shard=\"" + std::to_string(shard) + "\"}";
}

std::string shed_label(std::uint16_t machine, const char* reason) {
  // Only experience is ever shed by the queue policy (control is never
  // dropped, weights are backpressured), so the class label is fixed.
  return std::string("xt_messages_shed_total{machine=\"") +
         std::to_string(machine) + "\",class=\"experience\",reason=\"" +
         reason + "\"}";
}

/// 64-bit finalizer (murmur3) spreading packed NodeIds — whose entropy sits
/// in a few low bit groups — uniformly over the shard space.
std::uint64_t mix64(std::uint64_t key) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdULL;
  key ^= key >> 33;
  key *= 0xc4ceb9fe1a85ec53ULL;
  key ^= key >> 33;
  return key;
}

constexpr std::uint32_t kMaxRouterShards = 64;

}  // namespace

const char* drop_reason_name(DropReason reason) {
  switch (reason) {
    case DropReason::kUnknownDest: return "unknown_dest";
    case DropReason::kClosedDest: return "closed_dest";
    case DropReason::kCrcFail: return "crc_fail";
    case DropReason::kNoSink: return "no_sink";
    case DropReason::kMissingBody: return "missing_body";
    case DropReason::kNoLocalDest: return "no_local_dest";
    case DropReason::kCount: break;
  }
  return "unknown";
}

Broker::Broker(std::uint16_t machine) : Broker(machine, Options{}) {}

Broker::Broker(std::uint16_t machine, Options options)
    : machine_(machine),
      options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? *options_.metrics
                                           : MetricsRegistry::global()),
      trace_(options_.trace != nullptr ? options_.trace
                                       : &TraceCollector::global()),
      inst_{metrics_.counter(machine_label("xt_broker_routed_total", machine)),
            metrics_.counter(machine_label("xt_broker_forwarded_total", machine)),
            metrics_.counter(machine_label("xt_broker_rehosted_total", machine)),
            metrics_.counter(machine_label("xt_broker_dropped_total", machine)),
            metrics_.gauge(machine_label("xt_broker_queue_depth", machine)),
            metrics_.histogram(machine_label("xt_broker_route_ms", machine)),
            metrics_.histogram(machine_label("xt_queue_wait_ms", machine)),
            metrics_.counter(
                machine_label("xt_frames_corrupted_total", machine))} {
  for (std::size_t i = 0; i < drop_by_reason_.size(); ++i) {
    drop_by_reason_[i] =
        &metrics_.counter(drop_label(machine, static_cast<DropReason>(i)));
  }
  codec_instruments_.compress_ms =
      &metrics_.histogram(machine_label("xt_codec_compress_ms", machine));
  codec_instruments_.decompress_ms =
      &metrics_.histogram(machine_label("xt_codec_decompress_ms", machine));
  codec_instruments_.bytes_in =
      &metrics_.counter(machine_label("xt_codec_bytes_in_total", machine));
  codec_instruments_.bytes_out =
      &metrics_.counter(machine_label("xt_codec_bytes_out_total", machine));
  codec_instruments_.messages_compressed =
      &metrics_.counter(machine_label("xt_codec_messages_compressed_total", machine));

  StoreInstruments store_instruments;
  store_instruments.puts =
      &metrics_.counter(machine_label("xt_store_puts_total", machine));
  store_instruments.put_bytes =
      &metrics_.counter(machine_label("xt_store_put_bytes_total", machine));
  store_instruments.fetches =
      &metrics_.counter(machine_label("xt_store_fetches_total", machine));
  store_instruments.live_bytes =
      &metrics_.gauge(machine_label("xt_store_live_bytes", machine));
  store_.bind_instruments(store_instruments);

  shed_router_ = &metrics_.counter(shed_label(machine, "router_overflow"));
  shed_inbox_ = &metrics_.counter(shed_label(machine, "inbox_overflow"));

  const std::uint32_t n_shards = std::clamp<std::uint32_t>(
      options_.router_shards == 0 ? 1 : options_.router_shards, 1,
      kMaxRouterShards);
  shards_.reserve(n_shards);
  for (std::uint32_t s = 0; s < n_shards; ++s) {
    // A shed header owned this shard's share of the submit-time store
    // references; release exactly those so the refcount stays balanced.
    auto shard = std::make_unique<RouterShard>(
        options_.overload,
        [this, s](TrafficClass /*cls*/, MessageHeader&& header) {
          const std::uint32_t refs = shard_share(header, s);
          for (std::uint32_t i = 0; i < refs; ++i) {
            store_.release(header.object_id);
          }
          shed_router_->inc();
        });
    shard->depth =
        &metrics_.gauge(shard_label("xt_router_shard_depth", machine, s));
    shard->drops = &metrics_.counter(
        shard_label("xt_router_shard_drops_total", machine, s));
    shards_.push_back(std::move(shard));
  }
  for (std::uint32_t s = 0; s < n_shards; ++s) {
    RouterShard* shard = shards_[s].get();
    // Single-shard brokers keep the classic "router-mN" thread name so
    // profiles and saturation dumps from pre-sharding runs stay comparable.
    const std::string thread_name =
        n_shards == 1 ? "router-m" + std::to_string(machine_)
                      : "router-m" + std::to_string(machine_) + "/s" +
                            std::to_string(s);
    shard->thread = std::thread([this, shard, s, thread_name] {
      set_current_thread_name(thread_name);
      router_loop(*shard, s);
    });
  }
}

Broker::~Broker() { stop(); }

void Broker::stop() {
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

std::shared_ptr<IdQueue> Broker::register_endpoint(const NodeId& id) {
  // Every RoutedHeader in an inbox owns exactly one store reference.
  auto queue = std::make_shared<IdQueue>(
      options_.overload, [this](TrafficClass /*cls*/, RoutedHeader&& routed) {
        store_.release(routed.header.object_id);
        shed_inbox_->inc();
      });
  std::scoped_lock lock(mu_);
  endpoints_[id] = queue;
  return queue;
}

void Broker::unregister_endpoint(const NodeId& id) {
  std::shared_ptr<IdQueue> queue;
  {
    std::scoped_lock lock(mu_);
    auto it = endpoints_.find(id);
    if (it == endpoints_.end()) return;
    queue = std::move(it->second);
    endpoints_.erase(it);
  }
  queue->close();
}

std::uint32_t Broker::shard_of(std::uint64_t key) const {
  return static_cast<std::uint32_t>(mix64(key) % shards_.size());
}

std::uint64_t Broker::machine_shard_key(std::uint16_t machine) {
  // Remote forwards hash by destination machine, in the same key space as
  // local destinations: the machine's broker is the logical destination.
  return NodeId{machine, NodeKind::kBroker, 0}.packed();
}

bool Broker::submit(MessageHeader header) {
  const TrafficClass cls = header.tclass;
  if (shards_.size() == 1) {
    // kShed counts as accepted: the shed callback already released the
    // header's store references, so the caller must not release them again.
    const PushResult result = shards_[0]->queue.push(cls, std::move(header));
    if (result == PushResult::kClosed) return false;
    publish_total_depth();
    return true;
  }
  // Fan the header to every shard that owns at least one of its local
  // destinations or remote target machines. Each shard routes only its own
  // subset, so across shards every destination is handled exactly once and
  // the store refcount from expected_fetches() still balances. `share[s]`
  // counts the store references shard s will consume: if its queue is
  // already closed (shutdown race) those references are released here so
  // shards that did accept keep a balanced count.
  std::array<std::uint32_t, kMaxRouterShards> share{};
  std::set<std::uint16_t> remote_machines;
  for (const NodeId& dst : header.dsts) {
    if (dst.machine == machine_) {
      ++share[shard_of(dst.packed())];
    } else if (remote_machines.insert(dst.machine).second) {
      ++share[shard_of(machine_shard_key(dst.machine))];
    }
  }
  bool any_consumer = false;
  bool any_accepted = false;
  std::uint32_t rejected_refs = 0;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    if (share[s] == 0) continue;
    any_consumer = true;
    // kShed is "accepted": the shard's shed callback released share[s]
    // references itself (via shard_share). Only a closed queue leaves its
    // share unbalanced.
    if (shards_[s]->queue.push(cls, header) != PushResult::kClosed) {
      any_accepted = true;
    } else {
      rejected_refs += share[s];
    }
  }
  if (any_accepted) {
    // Balance the store references of closed shards; with false the caller
    // releases every reference itself, so nothing is released here.
    for (std::uint32_t i = 0; i < rejected_refs; ++i) {
      store_.release(header.object_id);
    }
  }
  // Destination-less headers still drain through shard 0 (legacy behavior).
  if (!any_consumer) {
    any_accepted = shards_[0]->queue.push(cls, header) != PushResult::kClosed;
  }
  if (any_accepted) publish_total_depth();
  return any_accepted;
}

std::uint32_t Broker::shard_share(const MessageHeader& header,
                                  std::uint32_t shard) const {
  if (shards_.size() == 1) return expected_fetches(header);
  std::uint32_t share = 0;
  std::set<std::uint16_t> remote_machines;
  for (const NodeId& dst : header.dsts) {
    if (dst.machine == machine_) {
      if (shard_of(dst.packed()) == shard) ++share;
    } else if (remote_machines.insert(dst.machine).second &&
               shard_of(machine_shard_key(dst.machine)) == shard) {
      ++share;
    }
  }
  // Destination-less headers drain through shard 0 and were stored with one
  // reference (expected_fetches floors at 1).
  if (header.dsts.empty() && shard == 0) return 1;
  return share;
}

void Broker::publish_total_depth() {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->queue.size();
  inst_.queue_depth.set(static_cast<double>(total));
}

std::uint32_t Broker::expected_fetches(const MessageHeader& header) const {
  std::uint32_t local = 0;
  std::set<std::uint16_t> remote_machines;
  for (const NodeId& dst : header.dsts) {
    if (dst.machine == machine_) {
      ++local;
    } else {
      remote_machines.insert(dst.machine);
    }
  }
  const auto total = local + static_cast<std::uint32_t>(remote_machines.size());
  return total == 0 ? 1 : total;
}

void Broker::set_remote_sink(std::uint16_t machine, RemoteSink sink) {
  std::scoped_lock lock(mu_);
  remote_sinks_[machine] = std::move(sink);
}

void Broker::router_loop(RouterShard& shard, std::uint32_t shard_index) {
  while (auto header = shard.queue.pop()) {
    shard.depth->set(static_cast<double>(shard.queue.size()));
    publish_total_depth();
    route(std::move(*header), shard_index, shard);
  }
  shard.depth->set(0.0);
  publish_total_depth();
}

void Broker::note_drop(DropReason reason, RouterShard* shard) {
  inst_.dropped.inc();
  drop_by_reason_[static_cast<std::size_t>(reason)]->inc();
  if (shard != nullptr) shard->drops->inc();
  bool warn = false;
  std::uint64_t total = 0;
  std::uint64_t since = 0;
  {
    std::scoped_lock lock(mu_);
    ++dropped_;
    total = dropped_;
    const std::int64_t now = now_ns();
    if (!warned_once_ || now - last_drop_warn_ns_ >= kDropWarnIntervalNs) {
      warn = true;
      warned_once_ = true;
      since = total - dropped_at_last_warn_;
      last_drop_warn_ns_ = now;
      dropped_at_last_warn_ = total;
    }
  }
  if (warn) {
    XT_LOG_WARN << "broker m" << machine_ << ": dropping messages (" << since
                << " new, " << total
                << " total, latest: " << drop_reason_name(reason) << ")";
  }
}

void Broker::route(MessageHeader header, std::uint32_t shard_index,
                   RouterShard& shard) {
  const Stopwatch route_clock;
  ProfScope prof("route");
  TraceScope route_span(trace_, "router.route", "comm", header.trace_id(),
                        machine_, header.body_size);

  // Partition destinations: local endpoints get the header directly through
  // their ID queue; every distinct remote machine gets one forwarded copy of
  // (header, body) through its sink. With several shards this shard only
  // handles the destinations/machines that hash onto it — the other shards
  // received their own copy of the header from submit().
  const bool sharded = shards_.size() > 1;
  std::set<std::uint16_t> remote_machines;
  for (const NodeId& dst : header.dsts) {
    if (dst.machine == machine_) continue;
    if (sharded && shard_of(machine_shard_key(dst.machine)) != shard_index) {
      continue;
    }
    remote_machines.insert(dst.machine);
  }

  const std::int64_t routed_ns = now_ns();
  for (const NodeId& dst : header.dsts) {
    if (dst.machine != machine_) continue;
    if (sharded && shard_of(dst.packed()) != shard_index) continue;
    std::shared_ptr<IdQueue> queue;
    {
      std::scoped_lock lock(mu_);
      auto it = endpoints_.find(dst);
      if (it != endpoints_.end()) queue = it->second;
    }
    if (!queue) {
      store_.release(header.object_id);
      note_drop(DropReason::kUnknownDest, &shard);
    } else {
      push_inbox(*queue, header, routed_ns, &shard);
    }
  }

  for (std::uint16_t machine : remote_machines) {
    RemoteSink sink;
    {
      std::scoped_lock lock(mu_);
      auto it = remote_sinks_.find(machine);
      if (it != remote_sinks_.end()) sink = it->second;
    }
    Payload body = store_.fetch(header.object_id);
    if (!sink || !body) {
      if (body == nullptr) {
        note_drop(DropReason::kMissingBody, &shard);
      } else {
        store_.release(header.object_id);
        note_drop(DropReason::kNoSink, &shard);
      }
      continue;
    }
    inst_.forwarded.inc();
    sink(header, std::move(body));
  }

  inst_.route_ms.observe(route_clock.elapsed_ms());
}

bool Broker::deliver_frame(const WireFrame& frame) {
  const std::optional<std::vector<WireSubFrame>> subframes = decode_wire_frame(frame);
  if (!subframes.has_value()) {
    inst_.corrupted.inc();
    for (std::size_t i = 0; i < frame.subframes(); ++i) {
      note_drop(DropReason::kCrcFail);
    }
    return false;
  }
  for (const WireSubFrame& sub : *subframes) deliver_remote(sub.header, sub.body);
  return true;
}

void Broker::deliver_remote(MessageHeader header, Payload body) {
  ProfScope prof("rehost");
  TraceScope rehost_span(trace_, "broker.rehost", "comm", header.trace_id(),
                         machine_, body->size());
  // Count destinations that live here; the forwarding router already split
  // the message per machine, so remote dsts in the header are not ours.
  std::uint32_t local = 0;
  for (const NodeId& dst : header.dsts) {
    if (dst.machine == machine_) ++local;
  }
  if (local == 0) {
    note_drop(DropReason::kNoLocalDest);
    return;
  }
  header.object_id = store_.put(std::move(body), local);
  inst_.rehosted.inc();

  const std::int64_t routed_ns = now_ns();
  for (const NodeId& dst : header.dsts) {
    if (dst.machine != machine_) continue;
    std::shared_ptr<IdQueue> queue;
    {
      std::scoped_lock lock(mu_);
      auto it = endpoints_.find(dst);
      if (it != endpoints_.end()) queue = it->second;
    }
    if (!queue) {
      store_.release(header.object_id);
      note_drop(DropReason::kUnknownDest);
    } else {
      push_inbox(*queue, header, routed_ns, nullptr);
    }
  }
}

void Broker::push_inbox(IdQueue& queue, const MessageHeader& header,
                        std::int64_t routed_ns, RouterShard* shard) {
  switch (queue.push(header.tclass, RoutedHeader{header, routed_ns})) {
    case PushResult::kEnqueued:
      inst_.routed.inc();
      break;
    case PushResult::kShed:
      // The inbox shed callback released the store reference and counted
      // the shed; not a drop (the overload policy worked as designed).
      break;
    case PushResult::kClosed:
      store_.release(header.object_id);
      note_drop(DropReason::kClosedDest, shard);
      break;
  }
}

std::uint64_t Broker::shard_drops(std::uint32_t shard) const {
  if (shard >= shards_.size()) return 0;
  return static_cast<std::uint64_t>(shards_[shard]->drops->value());
}

std::uint64_t Broker::dropped_messages() const {
  std::scoped_lock lock(mu_);
  return dropped_;
}

std::uint64_t Broker::dropped_messages(DropReason reason) const {
  return static_cast<std::uint64_t>(
      drop_by_reason_[static_cast<std::size_t>(reason)]->value());
}

std::uint64_t Broker::corrupted_frames() const {
  return static_cast<std::uint64_t>(inst_.corrupted.value());
}

std::uint64_t Broker::shed_messages() const {
  return static_cast<std::uint64_t>(shed_router_->value()) +
         static_cast<std::uint64_t>(shed_inbox_->value());
}

std::vector<std::pair<std::string, std::size_t>> Broker::queue_depths() const {
  std::vector<std::pair<std::string, std::size_t>> out;
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->queue.size();
  out.emplace_back("router-m" + std::to_string(machine_), total);
  if (shards_.size() > 1) {
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      out.emplace_back("router-m" + std::to_string(machine_) + "/s" +
                           std::to_string(s),
                       shards_[s]->queue.size());
    }
  }
  std::scoped_lock lock(mu_);
  out.reserve(out.size() + endpoints_.size());
  for (const auto& [id, queue] : endpoints_) {
    out.emplace_back("inbox-" + id.name(), queue->size());
  }
  return out;
}

}  // namespace xt
