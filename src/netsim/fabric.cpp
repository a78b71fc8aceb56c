#include "netsim/fabric.h"

#include <functional>
#include <utility>

namespace xt {
namespace {

/// Ack batching rides on data-frame coalescing: when frames carry up to N
/// sub-frames each, acking every frame individually would still burn one
/// reverse-pipe frame slot per data frame, so by default batch acks to the
/// same depth. An explicit ack_coalesce_max in the config wins.
ReliabilityConfig derive_reliability(ReliabilityConfig reliability,
                                     const CoalesceConfig& coalesce) {
  if (coalesce.enabled && reliability.ack_coalesce_max <= 1) {
    reliability.ack_coalesce_max =
        static_cast<std::uint32_t>(coalesce.max_subframes);
  }
  return reliability;
}

}  // namespace

Fabric::Fabric(LinkConfig default_link, ReliabilityConfig reliability,
               CoalesceConfig coalesce)
    : default_link_(default_link),
      reliability_(derive_reliability(reliability, coalesce)),
      coalesce_(coalesce) {}

Fabric::~Fabric() { stop(); }

void Fabric::connect(Broker& a, Broker& b) { connect(a, b, default_link_); }

void Fabric::connect(Broker& a, Broker& b, LinkConfig link) {
  // Both pipes must exist before either direction is wired: with
  // reliability on, each direction's channel acks over the reverse pipe.
  PacedPipe* ab = make_pipe(a, b, link);
  PacedPipe* ba = make_pipe(b, a, link);
  connect_one_way(a, b, link, ab, ba);
  connect_one_way(b, a, link, ba, ab);
}

PacedPipe* Fabric::make_pipe(Broker& from, Broker& to,
                             const LinkConfig& link) {
  const std::string name =
      "m" + std::to_string(from.machine()) + ">m" + std::to_string(to.machine());
  const std::string label = "{link=\"" + name + "\"}";
  PacedPipe::Observability obs;
  obs.trace = from.trace();
  obs.transmit_ms = &from.metrics().histogram("xt_pipe_transmit_ms" + label);
  obs.wire_bytes = &from.metrics().counter("xt_pipe_wire_bytes_total" + label);
  obs.frames = &from.metrics().counter("xt_pipe_frames_total" + label);
  obs.pid = from.machine();
  if (link.faults.enabled()) {
    auto fault_counter = [&](const char* kind) {
      return &from.metrics().counter(
          std::string("xt_faults_injected_total{link=\"") + name +
          "\",kind=\"" + kind + "\"}");
    };
    obs.faults_dropped = fault_counter("drop");
    obs.faults_corrupted = fault_counter("corrupt");
    obs.faults_delayed = fault_counter("delay");
    obs.faults_blackout = fault_counter("blackout");
  }
  if (link.overload.bounded()) {
    obs.frames_shed =
        &from.metrics().counter("xt_frames_shed_total" + label);
  }
  auto pipe = std::make_unique<PacedPipe>(name, link, obs);
  PacedPipe* raw = pipe.get();
  std::scoped_lock lock(mu_);
  pipes_.push_back(std::move(pipe));
  return raw;
}

void Fabric::connect_one_way(Broker& from, Broker& to, const LinkConfig& link,
                             PacedPipe* data_pipe, PacedPipe* ack_pipe) {
  Broker* target = &to;
  const std::string name = data_pipe->name();
  const std::string label = "{link=\"" + name + "\"}";

  // Every message leaves as a wire frame. Build this direction's frame path
  // first; the coalescer (when enabled) and the per-message remote sink both
  // feed it.
  std::function<void(WireFrame)> frame_sender;

  if (reliability_.enabled) {
    ReliableChannel::Instruments inst;
    inst.retransmits =
        &from.metrics().counter("xt_retransmits_total" + label);
    inst.give_ups =
        &from.metrics().counter("xt_retransmit_give_ups_total" + label);
    inst.duplicates =
        &from.metrics().counter("xt_link_duplicate_frames_total" + label);
    inst.acks = &from.metrics().counter("xt_link_acks_total" + label);
    inst.link_state = &from.metrics().gauge("xt_link_state" + label);
    inst.breaker_opens =
        &from.metrics().counter("xt_link_breaker_opens_total" + label);
    inst.breaker_shed =
        &from.metrics().counter("xt_link_breaker_shed_total" + label);
    auto channel = std::make_unique<ReliableChannel>(
        name, reliability_, *data_pipe, *target, inst);
    ReliableChannel* ch = channel.get();
    // Acks ride the reverse pipe so they share its fault plan: a lost or
    // corrupted ack frame leaves its seqs pending and the sender
    // retransmits. A batched ack frame pays the base framing cost once plus
    // a few bytes per extra seq — that, not politeness, is why batching
    // matters at high explorer counts.
    const std::size_t ack_wire = reliability_.ack_wire_bytes;
    const std::size_t ack_extra = reliability_.ack_extra_seq_bytes;
    channel->set_ack_sender(
        [ch, ack_pipe, ack_wire, ack_extra](
            const std::vector<std::uint64_t>& seqs) {
          const std::size_t wire = ack_wire + ack_extra * (seqs.size() - 1);
          auto shared = std::make_shared<std::vector<std::uint64_t>>(seqs);
          // Acks are control: a bounded reverse pipe must never shed them
          // behind bulk experience, or every loss becomes a retransmit storm.
          ack_pipe->send_faultable(
              wire,
              [ch, shared](const FaultOutcome& o) {
                if (!o.corrupt) ch->on_acks(*shared);
              },
              /*trace_id=*/0, TrafficClass::kControl);
        });
    frame_sender = [ch](WireFrame frame) { ch->send_frame(std::move(frame)); };
    std::scoped_lock lock(mu_);
    channels_.push_back(std::move(channel));
  } else {
    // Unreliable path. The frame CRC is stamped only when the link can
    // actually corrupt frames, keeping the fault-free benchmark path free of
    // checksum work. (Corrupt outcomes only occur with faults enabled, so a
    // corruptible frame always carries its CRC.)
    PacedPipe* raw = data_pipe;
    const bool stamp_crc = link.faults.enabled();
    frame_sender = [raw, target, stamp_crc](WireFrame frame) {
      if (stamp_crc && !frame.crc_present) {
        frame.crc = wire_frame_crc(frame);
        frame.crc_present = true;
      }
      const std::size_t wire = frame.wire_size();
      const std::uint64_t trace_id = frame.trace_id;
      const TrafficClass cls = frame.tclass;
      auto shared = std::make_shared<WireFrame>(std::move(frame));
      raw->send_faultable(
          wire,
          [target, shared](const FaultOutcome& outcome) {
            target->deliver_frame(apply_corruption(*shared, outcome));
          },
          trace_id, cls);
    };
  }

  FrameCoalescer* coalescer = nullptr;
  if (coalesce_.enabled) {
    auto co = std::make_unique<FrameCoalescer>(
        name, coalesce_, frame_sender,
        &from.metrics().counter("xt_frames_coalesced_total" + label));
    coalescer = co.get();
    std::scoped_lock lock(mu_);
    coalescers_.push_back(std::move(co));
  }

  from.set_remote_sink(
      to.machine(),
      [coalescer, frame_sender](MessageHeader header, Payload body) {
        if (coalescer != nullptr && coalescer->offer(header, body)) return;
        frame_sender(encode_wire_frame(
            {WireSubFrame{std::move(header), std::move(body)}},
            /*with_crc=*/false));
      });
}

void Fabric::stop() {
  std::scoped_lock lock(mu_);
  // Coalescers first (they flush into the channels/pipes), then channels
  // (their retransmitter threads enqueue onto the pipes), then the pipes.
  for (auto& coalescer : coalescers_) coalescer->stop();
  for (auto& channel : channels_) channel->stop();
  for (auto& pipe : pipes_) pipe->stop();
}

std::uint64_t Fabric::total_bytes() const {
  std::scoped_lock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& pipe : pipes_) total += pipe->bytes_transferred();
  return total;
}

std::vector<const PacedPipe*> Fabric::pipes() const {
  std::scoped_lock lock(mu_);
  std::vector<const PacedPipe*> out;
  out.reserve(pipes_.size());
  for (const auto& pipe : pipes_) out.push_back(pipe.get());
  return out;
}

std::vector<const ReliableChannel*> Fabric::channels() const {
  std::scoped_lock lock(mu_);
  std::vector<const ReliableChannel*> out;
  out.reserve(channels_.size());
  for (const auto& channel : channels_) out.push_back(channel.get());
  return out;
}

std::uint64_t Fabric::coalesced_subframes() const {
  std::scoped_lock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& coalescer : coalescers_) {
    total += coalescer->coalesced_subframes();
  }
  return total;
}

}  // namespace xt
