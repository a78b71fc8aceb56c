#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/blocking_queue.h"
#include "compress/codec.h"
#include "comm/message.h"
#include "comm/object_store.h"
#include "comm/overload.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace xt {

struct WireFrame;

/// What the router puts into a destination's ID queue: the per-destination
/// header copy plus the router's enqueue timestamp, which gives the
/// destination-queue-wait hop of the message lifecycle (receiver pop time
/// minus routed_ns) without growing MessageHeader itself.
struct RoutedHeader {
  MessageHeader header;
  std::int64_t routed_ns = 0;
};

/// Per-destination queue of message headers ("ID queue" in paper Fig. 2(a)):
/// the router passes object ids + metadata to each destination process here.
/// Classed: a heartbeat routed into a deep inbox is still popped next, and
/// under a bounded `[comm]` overload config the data plane sheds experience
/// instead of growing without limit.
using IdQueue = ClassedQueue<RoutedHeader>;

/// Sink for messages leaving this machine; the network simulator implements
/// it with a bandwidth-paced link whose far end calls deliver_frame() on
/// the target machine's broker.
using RemoteSink = std::function<void(MessageHeader, Payload)>;

/// Why the broker refused to deliver a message. Each reason has its own
/// `xt_broker_dropped_total{machine=...,reason=...}` counter so chaos runs
/// can tell integrity rejects from routing failures at a glance.
enum class DropReason : std::uint8_t {
  kUnknownDest = 0,   ///< destination was never registered
  kClosedDest = 1,    ///< destination queue closed (endpoint shut down)
  kCrcFail = 2,       ///< cross-machine frame failed its CRC check
  kNoSink = 3,        ///< no forwarding sink for the destination machine
  kMissingBody = 4,   ///< object store had no body for a remote forward
  kNoLocalDest = 5,   ///< remote delivery addressed nothing on this machine
  kCount,
};

[[nodiscard]] const char* drop_reason_name(DropReason reason);

/// The broker process (paper Section 3.2.1): owns the shared-memory
/// communicator (header queues + object store) and runs the
/// algorithm-agnostic router — one thread per shard (Options::router_shards,
/// default one, the paper's layout).
///
/// The router only parses headers — source, destinations, object id — and
/// never inspects message bodies, so the same broker serves every DRL
/// algorithm (and the dummy transmission benchmark) unchanged.
class Broker {
 public:
  struct Options {
    CompressionConfig compression;
    bool deep_copy_store = false;  ///< ablation: copy bodies instead of sharing
    /// Router shard count (`[comm] router_shards`). 1 = the classic single
    /// router thread, bit-identical to the pre-sharding broker. With N > 1
    /// the router is split into N threads, each owning the destinations (and
    /// remote machines) whose id hashes onto it — so per-destination FIFO
    /// order is preserved while unrelated destinations route in parallel.
    /// Clamped to [1, 64].
    std::uint32_t router_shards = 1;
    /// Modeled serialize+copy bandwidth into the shared-memory object store
    /// (0 = unpaced). The sender thread sleeps body_size / bandwidth per
    /// message, reproducing the per-byte cost the Python system pays when
    /// pickling into the Arrow store — off the workhorse's critical path,
    /// which is exactly the overlap the paper exploits. Benchmarks set this
    /// to the paper's measured effective rate (~65 MB/s: 13.8 MB IMPALA
    /// rollouts took 212 ms end to end in XingTian, Fig. 8(b)).
    double ipc_bandwidth_bytes_per_sec = 0.0;
    /// Telemetry sinks. Null means the process-wide defaults
    /// (MetricsRegistry::global() / TraceCollector::global()); the runtime
    /// injects its per-run instances here.
    MetricsRegistry* metrics = nullptr;
    TraceCollector* trace = nullptr;
    /// Overload policy for the router shard queues and every ID queue
    /// (`[comm] overload_high_watermark` etc.). Default = unbounded, the
    /// historical behaviour.
    OverloadConfig overload;
  };

  explicit Broker(std::uint16_t machine);
  Broker(std::uint16_t machine, Options options);
  ~Broker();

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  [[nodiscard]] std::uint16_t machine() const { return machine_; }
  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] ObjectStore& store() { return store_; }

  /// Telemetry sinks resolved from Options (never null).
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] TraceCollector* trace() { return trace_; }
  /// Shared codec hooks for every endpoint on this machine.
  [[nodiscard]] const CodecInstruments& codec_instruments() const {
    return codec_instruments_;
  }
  /// Destination-queue wait histogram (observed by endpoint receivers).
  [[nodiscard]] Histogram& queue_wait_histogram() { return inst_.queue_wait_ms; }

  /// Register a local endpoint; the returned ID queue is where the router
  /// will deliver headers addressed to `id`. Thread-safe.
  [[nodiscard]] std::shared_ptr<IdQueue> register_endpoint(const NodeId& id);

  /// Unregister and close the endpoint's ID queue. Headers already routed
  /// remain poppable until drained. Thread-safe.
  void unregister_endpoint(const NodeId& id);

  /// Submit a header whose body is already in the object store with a
  /// reference count equal to local_fanout(header) computed at submit time.
  /// Returns false if the broker is shutting down (caller must release the
  /// store references itself in that case).
  [[nodiscard]] bool submit(MessageHeader header);

  /// Number of store references `submit` expects for this header from this
  /// machine: one per local destination plus one per distinct remote machine
  /// (the router fetches once per remote machine to forward the body).
  [[nodiscard]] std::uint32_t expected_fetches(const MessageHeader& header) const;

  /// Install the forwarding sink toward another machine's broker.
  void set_remote_sink(std::uint16_t machine, RemoteSink sink);

  /// Ingress path for a wire frame arriving from another machine. A frame
  /// that fails its chained CRC (or does not decode) is rejected whole: one
  /// corrupted-frame tick and one CRC-fail drop per sub-frame it carried,
  /// none of which is delivered. Returns false only then — the signal a
  /// reliable link uses to withhold its ack so the sender retransmits.
  /// Routing drops (no local destination, closed queue) still return true:
  /// the frame arrived intact, retransmitting it cannot help.
  bool deliver_frame(const WireFrame& frame);

  /// Stop the router threads (idempotent). In-flight headers are drained.
  void stop();

  /// Messages that could not be delivered (any reason). Also surfaced as
  /// `xt_broker_dropped_total{machine=...}` plus per-reason counters
  /// `xt_broker_dropped_total{machine=...,reason=...}`.
  [[nodiscard]] std::uint64_t dropped_messages() const;

  /// Drops attributed to one specific reason.
  [[nodiscard]] std::uint64_t dropped_messages(DropReason reason) const;

  /// Cross-machine frames rejected by the CRC check (a subset of drops,
  /// also `xt_frames_corrupted_total{machine=...}`).
  [[nodiscard]] std::uint64_t corrupted_frames() const;

  /// Experience messages shed by bounded queues on this machine (router
  /// shards + ID queues). Also `xt_messages_shed_total{machine,class,reason}`.
  /// Deliberately separate from dropped_messages(): a shed is the overload
  /// policy working as designed, a drop is a routing/integrity failure.
  [[nodiscard]] std::uint64_t shed_messages() const;

  /// Depth snapshot for the saturation sampler: the router's header queue
  /// ("router-mN", total across shards, plus "router-mN/sK" per shard when
  /// sharded) and every registered endpoint's ID queue ("inbox-<node>").
  /// Thread-safe; a point-in-time read, not a fence.
  [[nodiscard]] std::vector<std::pair<std::string, std::size_t>> queue_depths()
      const;

  /// Resolved shard count (>= 1).
  [[nodiscard]] std::uint32_t router_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Which router shard owns a destination (or, via machine_shard_key, a
  /// remote machine). Deterministic for a given shard count, so the same
  /// destination always routes through the same shard.
  [[nodiscard]] std::uint32_t shard_of(std::uint64_t key) const;

  /// Shard-hash key for forwarding to a remote machine.
  [[nodiscard]] static std::uint64_t machine_shard_key(std::uint16_t machine);

  /// Drops attributed to one router shard (local routing + forwarding only;
  /// ingress drops from deliver_remote happen on pipe threads, not shards).
  [[nodiscard]] std::uint64_t shard_drops(std::uint32_t shard) const;

 private:
  /// Telemetry handles resolved once at construction; hot-path updates are
  /// atomic adds on these references.
  struct Instruments {
    Counter& routed;            ///< headers delivered to local ID queues
    Counter& forwarded;         ///< bodies forwarded to remote machines
    Counter& rehosted;          ///< remote bodies re-hosted locally
    Counter& dropped;
    Gauge& queue_depth;         ///< router header-queue depth
    Histogram& route_ms;        ///< one route() pass
    Histogram& queue_wait_ms;   ///< ID-queue wait (router enqueue -> receiver pop)
    Counter& corrupted;         ///< CRC-failed cross-machine frames
  };

  /// One router shard: its own header queue, thread, and telemetry handles.
  struct RouterShard {
    RouterShard(const OverloadConfig& cfg,
                ClassedQueue<MessageHeader>::ShedFn on_shed)
        : queue(cfg, std::move(on_shed)) {}
    ClassedQueue<MessageHeader> queue;
    Gauge* depth = nullptr;    ///< xt_router_shard_depth{machine,shard}
    Counter* drops = nullptr;  ///< xt_router_shard_drops_total{machine,shard}
    std::thread thread;
  };

  void router_loop(RouterShard& shard, std::uint32_t shard_index);
  void route(MessageHeader header, std::uint32_t shard_index,
             RouterShard& shard);
  void publish_total_depth();
  /// Re-hosts one message from another machine in the local object store
  /// and fans its header out to local ID queues. Local workhorses never
  /// perceive the difference (Section 3.2.1).
  void deliver_remote(MessageHeader header, Payload body);
  /// Store references shard `shard` will consume for `header` — the share of
  /// expected_fetches() that submit() routed to it. Used by the shard shed
  /// callback to release exactly the references the shed header owned.
  [[nodiscard]] std::uint32_t shard_share(const MessageHeader& header,
                                          std::uint32_t shard) const;
  /// Push a routed header into an ID queue, translating the outcome into
  /// ref-accounting + drop/shed telemetry (shared by route/deliver_remote).
  void push_inbox(IdQueue& queue, const MessageHeader& header,
                  std::int64_t routed_ns, RouterShard* shard);
  /// Count a drop (total + per-reason, plus per-shard when attributable) and
  /// emit a rate-limited warning (one line per warning interval, not one per
  /// dropped message).
  void note_drop(DropReason reason, RouterShard* shard = nullptr);

  const std::uint16_t machine_;
  const Options options_;
  MetricsRegistry& metrics_;
  TraceCollector* trace_;
  Instruments inst_;
  std::array<Counter*, static_cast<std::size_t>(DropReason::kCount)>
      drop_by_reason_{};
  Counter* shed_router_ = nullptr;  ///< xt_messages_shed_total{...router_overflow}
  Counter* shed_inbox_ = nullptr;   ///< xt_messages_shed_total{...inbox_overflow}
  CodecInstruments codec_instruments_;
  ObjectStore store_;
  std::vector<std::unique_ptr<RouterShard>> shards_;

  mutable std::mutex mu_;
  std::unordered_map<NodeId, std::shared_ptr<IdQueue>> endpoints_;
  std::unordered_map<std::uint16_t, RemoteSink> remote_sinks_;
  std::uint64_t dropped_ = 0;
  std::int64_t last_drop_warn_ns_ = 0;
  std::uint64_t dropped_at_last_warn_ = 0;
  bool warned_once_ = false;
};

}  // namespace xt
