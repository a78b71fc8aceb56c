#include "netsim/reliable_link.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/clock.h"
#include "common/log.h"
#include "common/thread_util.h"
#include "netsim/fault_plan.h"
#include "obs/profiler.h"

namespace xt {
namespace {

std::int64_t ms_to_ns(double ms) {
  return static_cast<std::int64_t>(std::llround(ms * 1e6));
}

}  // namespace

const char* link_state_name(LinkState state) {
  switch (state) {
    case LinkState::kClosed: return "closed";
    case LinkState::kOpen: return "open";
    case LinkState::kHalfOpen: return "half_open";
  }
  return "closed";
}

ReliableChannel::ReliableChannel(std::string name, ReliabilityConfig config,
                                 PacedPipe& data_pipe, Broker& receiver,
                                 Instruments inst)
    : name_(std::move(name)),
      config_(config),
      pipe_(data_pipe),
      receiver_(receiver),
      inst_(inst) {
  retransmitter_ = std::thread([this] {
    set_current_thread_name("rexmit-" + name_);
    retransmit_loop();
  });
}

ReliableChannel::~ReliableChannel() { stop(); }

void ReliableChannel::stop() {
  {
    std::scoped_lock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (retransmitter_.joinable()) retransmitter_.join();
  // Flush batched acks so the peer's pending map doesn't keep frames the
  // receiving side already delivered.
  std::vector<std::uint64_t> flush;
  {
    std::scoped_lock lock(recv_mu_);
    flush.swap(ack_pending_);
  }
  send_acks(flush);
}

void ReliableChannel::set_ack_sender(AckSender sender) {
  ack_sender_ = std::move(sender);
}

std::size_t ReliableChannel::pending() const {
  std::scoped_lock lock(mu_);
  return pending_.size();
}

LinkState ReliableChannel::state() const {
  std::scoped_lock lock(mu_);
  return state_;
}

void ReliableChannel::set_state_locked(LinkState state) {
  state_ = state;
  if (inst_.link_state != nullptr) {
    inst_.link_state->set(static_cast<double>(state));
  }
}

bool ReliableChannel::breaker_admit_locked(const WireFrame& frame,
                                           std::int64_t now) {
  if (config_.breaker_failures == 0 || state_ == LinkState::kClosed) {
    return true;
  }
  // Control always flows: heartbeats and acks are the cheapest possible
  // probes, and shedding them would blind the supervisor exactly when it
  // needs link-state evidence.
  if (frame.tclass == TrafficClass::kControl) return true;
  if (state_ == LinkState::kOpen && now >= probe_deadline_ns_) {
    set_state_locked(LinkState::kHalfOpen);
    probe_in_flight_ = false;
  }
  if (state_ == LinkState::kHalfOpen && !probe_in_flight_) {
    probe_in_flight_ = true;  // admit exactly one frame to test the link
    return true;
  }
  if (inst_.breaker_shed != nullptr) inst_.breaker_shed->inc();
  return false;
}

void ReliableChannel::note_give_up_locked(std::int64_t now) {
  if (config_.breaker_failures == 0) return;
  ++consecutive_give_ups_;
  const bool probe_failed = state_ == LinkState::kHalfOpen;
  if (!probe_failed && (state_ == LinkState::kOpen ||
                        consecutive_give_ups_ < config_.breaker_failures)) {
    return;
  }
  // Trip (or re-trip after a failed probe): shed pending non-control frames
  // so the retransmit queue stops growing against a dead link; control
  // frames stay pending — they are the probes that will close the breaker.
  set_state_locked(LinkState::kOpen);
  probe_deadline_ns_ = now + ms_to_ns(config_.breaker_probe_ms);
  probe_in_flight_ = false;
  if (inst_.breaker_opens != nullptr) inst_.breaker_opens->inc();
  std::size_t shed = 0;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.frame.tclass == TrafficClass::kControl) {
      ++it;
      continue;
    }
    ++shed;
    it = pending_.erase(it);
  }
  if (inst_.breaker_shed != nullptr && shed > 0) {
    inst_.breaker_shed->inc(shed);
  }
  XT_LOG_WARN << "link " << name_ << ": circuit breaker open after "
              << consecutive_give_ups_ << " consecutive give-up(s), shed "
              << shed << " pending frame(s)";
}

void ReliableChannel::send(MessageHeader header, Payload body) {
  send_frame(encode_wire_frame({WireSubFrame{header, std::move(body)}},
                               /*with_crc=*/false));
}

void ReliableChannel::send_frame(WireFrame frame) {
  if (!frame.crc_present) {
    frame.crc = wire_frame_crc(frame);
    frame.crc_present = true;
  }
  std::uint64_t seq = 0;
  {
    std::scoped_lock lock(mu_);
    if (stopping_) return;
    if (!breaker_admit_locked(frame, now_ns())) return;
    seq = next_seq_++;
    frame.link_seq = seq;
    Pending entry;
    entry.frame = frame;
    entry.rto_ns = ms_to_ns(config_.rto_ms);
    entry.deadline_ns = now_ns() + entry.rto_ns;
    pending_.emplace(seq, std::move(entry));
  }
  cv_.notify_one();  // the retransmitter may need an earlier deadline
  transmit(seq, frame);
}

void ReliableChannel::transmit(std::uint64_t seq, const WireFrame& frame) {
  pipe_.send_faultable(
      frame.wire_size(),
      [this, seq, frame](const FaultOutcome& outcome) {
        deliver(seq, frame, outcome);
      },
      frame.trace_id, frame.tclass);
}

void ReliableChannel::deliver(std::uint64_t seq, const WireFrame& frame,
                              const FaultOutcome& outcome) {
  // Dedup first: a retransmit racing its own late ack must not reach the
  // broker twice. Re-ack duplicates immediately (flushing anything batched
  // with them) — a duplicate means the sender never saw the original ack and
  // is burning retransmit slots until it does.
  {
    std::vector<std::uint64_t> flush;
    {
      std::scoped_lock lock(recv_mu_);
      if (seq <= recv_floor_ || recv_seen_.count(seq) != 0) {
        if (inst_.duplicates != nullptr) inst_.duplicates->inc();
        flush.swap(ack_pending_);
        flush.push_back(seq);
      }
    }
    if (!flush.empty()) {
      send_acks(flush);
      return;
    }
  }
  // A frame that fails its chained CRC is rejected whole, and the withheld
  // ack makes one retransmit repair every sub-frame. Routing drops (no local
  // dest, closed queue) are not repairable by a retransmit, so they never
  // withhold the ack.
  if (!receiver_.deliver_frame(apply_corruption(frame, outcome))) return;
  std::vector<std::uint64_t> flush;
  {
    std::scoped_lock lock(recv_mu_);
    recv_seen_.insert(seq);
    while (recv_seen_.erase(recv_floor_ + 1) != 0) ++recv_floor_;
    queue_ack_locked(seq, &flush);
  }
  send_acks(flush);
}

void ReliableChannel::queue_ack_locked(std::uint64_t seq,
                                       std::vector<std::uint64_t>* flush) {
  if (ack_pending_.empty()) ack_oldest_ns_ = now_ns();
  ack_pending_.push_back(seq);
  const std::uint32_t batch_max =
      std::max<std::uint32_t>(config_.ack_coalesce_max, 1);
  if (ack_pending_.size() >= batch_max ||
      now_ns() - ack_oldest_ns_ >= config_.ack_flush_us * 1'000) {
    flush->swap(ack_pending_);
  }
}

void ReliableChannel::send_acks(const std::vector<std::uint64_t>& seqs) {
  if (!ack_sender_ || seqs.empty()) return;
  if (inst_.acks != nullptr) inst_.acks->inc(seqs.size());
  ack_sender_(seqs);
}

void ReliableChannel::on_acks(const std::vector<std::uint64_t>& seqs) {
  bool erased = false;
  bool reopened = false;
  {
    std::scoped_lock lock(mu_);
    for (const std::uint64_t seq : seqs) {
      erased = (pending_.erase(seq) != 0) || erased;
    }
    if (!seqs.empty() && config_.breaker_failures != 0) {
      // Any ack proves the link carries traffic end to end again: reset the
      // failure streak and close the breaker.
      consecutive_give_ups_ = 0;
      if (state_ != LinkState::kClosed) {
        set_state_locked(LinkState::kClosed);
        probe_in_flight_ = false;
        reopened = true;
      }
    }
  }
  if (reopened) {
    XT_LOG_INFO << "link " << name_ << ": circuit breaker closed (ack)";
  }
  if (erased) cv_.notify_one();
}

void ReliableChannel::retransmit_loop() {
  std::unique_lock lock(mu_);
  while (!stopping_) {
    if (pending_.empty()) {
      cv_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
      continue;
    }
    std::int64_t earliest = pending_.begin()->second.deadline_ns;
    for (const auto& [seq, entry] : pending_) {
      earliest = std::min(earliest, entry.deadline_ns);
    }
    const std::int64_t now = now_ns();
    if (earliest > now) {
      cv_.wait_for(lock, std::chrono::nanoseconds(earliest - now));
      continue;
    }
    // Collect everything past deadline, then retransmit outside the lock so
    // on_acks / send never contend with the (paced, potentially slow) pipe.
    std::vector<WireFrame> due;
    std::uint64_t abandoned = 0;
    for (auto it = pending_.begin(); it != pending_.end();) {
      Pending& entry = it->second;
      if (entry.deadline_ns > now) {
        ++it;
        continue;
      }
      if (entry.retries >= config_.max_retries) {
        if (inst_.give_ups != nullptr) inst_.give_ups->inc();
        ++abandoned;
        it = pending_.erase(it);
        // May trip the breaker, which erases pending non-control entries —
        // restart the scan rather than hold a possibly-invalidated iterator.
        const std::size_t before = pending_.size();
        note_give_up_locked(now);
        if (pending_.size() != before) it = pending_.begin();
        continue;
      }
      ++entry.retries;
      entry.rto_ns = std::min(
          static_cast<std::int64_t>(
              static_cast<double>(entry.rto_ns) * config_.backoff),
          ms_to_ns(config_.max_rto_ms));
      entry.deadline_ns = now + entry.rto_ns;
      due.push_back(entry.frame);
      ++it;
    }
    lock.unlock();
    if (abandoned > 0) {
      XT_LOG_WARN << "link " << name_ << ": abandoned " << abandoned
                  << " frame(s) after " << config_.max_retries << " retries";
    }
    if (!due.empty()) {
      ProfScope prof("retransmit");
      for (WireFrame& frame : due) {
        if (inst_.retransmits != nullptr) inst_.retransmits->inc();
        transmit(frame.link_seq, frame);
      }
    }
    lock.lock();
  }
}

}  // namespace xt
