#include "tape/drive.hpp"

#include <cassert>
#include <utility>

namespace cpa::tape {

TapeDrive::TapeDrive(sim::Simulation& sim, sim::FlowNetwork& net,
                     std::string name, TapeTimings timings)
    : sim_(sim), net_(net), name_(std::move(name)), timings_(timings) {
  rate_pool_ = net_.add_pool(name_ + ".rate", timings_.stream_rate_bps);
  cache_instruments();
}

void TapeDrive::set_observer(obs::Observer& obs) {
  obs_ = &obs;
  cache_instruments();
}

void TapeDrive::cache_instruments() {
  obs::MetricsRegistry& m = obs_->metrics();
  c_mounts_ = &m.counter("tape.mounts");
  c_unmounts_ = &m.counter("tape.unmounts");
  c_handoffs_ = &m.counter("tape.handoffs");
  c_seeks_ = &m.counter("tape.seeks");
  c_backhitches_ = &m.counter("tape.backhitches");
  c_write_txns_ = &m.counter("tape.write_txns");
  c_read_txns_ = &m.counter("tape.read_txns");
  c_bytes_written_ = &m.counter("tape.bytes_written");
  c_bytes_read_ = &m.counter("tape.bytes_read");
  g_mount_seconds_ = &m.gauge("tape.mount_seconds");
  g_seek_seconds_ = &m.gauge("tape.seek_seconds");
  g_backhitch_seconds_ = &m.gauge("tape.backhitch_seconds");
}

void TapeDrive::set_failed(bool failed) {
  if (failed_ == failed) return;
  failed_ = failed;
  if (failed) {
    obs_->trace().instant(obs::Component::Tape, name_, "drive_failed",
                          sim_.now());
    if (interrupt_) {
      auto abort = std::move(interrupt_);
      interrupt_ = nullptr;
      abort();
    }
  } else {
    obs_->trace().instant(obs::Component::Tape, name_, "drive_repaired",
                          sim_.now());
  }
}

void TapeDrive::enqueue(std::function<void(std::function<void()>)> op) {
  ops_.push_back(std::move(op));
  if (!busy_) run_next();
}

void TapeDrive::run_next() {
  if (ops_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  auto op = std::move(ops_.front());
  ops_.pop_front();
  // Each op receives a completion continuation that starts the next op.
  op([this] { run_next(); });
}

void TapeDrive::with_ownership(NodeId node, std::function<void()> then) {
  if (owner_ == node || owner_ == kNoNode) {
    owner_ = node;
    then();
    return;
  }
  // LAN-free handoff: the new node rewinds the tape and re-verifies the
  // label before it can use the mounted volume (Sec 6.2).
  ++stats_.handoffs;
  ++stats_.label_verifies;
  const sim::Tick penalty = timings_.rewind_time(position_) + timings_.label_verify;
  stats_.seek_time += timings_.rewind_time(position_);
  c_handoffs_->inc();
  g_seek_seconds_->add(sim::to_seconds(timings_.rewind_time(position_)));
  obs_->trace().complete(obs::Component::Tape, name_, "handoff", sim_.now(),
                         sim_.now() + penalty);
  position_ = 0;
  owner_ = node;
  sim_.after(penalty, std::move(then));
}

void TapeDrive::mount(Cartridge* cartridge, std::function<void()> done) {
  assert(cartridge != nullptr);
  enqueue([this, cartridge, done = std::move(done)](std::function<void()> next) {
    assert(cartridge_ == nullptr && "drive already has a mounted cartridge");
    const sim::Tick t = timings_.load + timings_.label_verify;
    ++stats_.mounts;
    ++stats_.label_verifies;
    stats_.mount_time += t;
    c_mounts_->inc();
    g_mount_seconds_->add(sim::to_seconds(t));
    obs_->trace().complete(obs::Component::Tape, name_, "mount", sim_.now(),
                           sim_.now() + t);
    sim_.after(t, [this, cartridge, done, next] {
      cartridge_ = cartridge;
      position_ = 0;
      owner_ = kNoNode;
      if (done) done();
      next();
    });
  });
}

void TapeDrive::unmount(std::function<void()> done) {
  enqueue([this, done = std::move(done)](std::function<void()> next) {
    assert(cartridge_ != nullptr && "no cartridge to unmount");
    const sim::Tick rewind = timings_.rewind_time(position_);
    const sim::Tick t = rewind + timings_.unload;
    ++stats_.unmounts;
    stats_.seek_time += rewind;
    stats_.mount_time += timings_.unload;
    c_unmounts_->inc();
    g_seek_seconds_->add(sim::to_seconds(rewind));
    g_mount_seconds_->add(sim::to_seconds(timings_.unload));
    obs_->trace().complete(obs::Component::Tape, name_, "unmount", sim_.now(),
                           sim_.now() + t);
    sim_.after(t, [this, done, next] {
      cartridge_ = nullptr;
      position_ = 0;
      owner_ = kNoNode;
      if (done) done();
      next();
    });
  });
}

void TapeDrive::write_object(NodeId node, std::uint64_t object_id,
                             std::uint64_t bytes, std::vector<sim::PathLeg> path,
                             WriteDone done, obs::SpanId parent) {
  const sim::Tick enq = sim_.now();
  enqueue([this, node, object_id, bytes, enq, parent, path = std::move(path),
           done = std::move(done)](std::function<void()> next) mutable {
    if (failed_ || cartridge_ == nullptr || !cartridge_->fits(bytes)) {
      if (done) done(nullptr, 0);
      next();
      return;
    }
    obs::TraceRecorder& tr = obs_->trace();
    if (sim_.now() > enq) {
      // The op sat behind earlier ops in the drive's FIFO.
      tr.link(parent, tr.complete(obs::Component::Tape, name_, "drive_wait",
                                  enq, sim_.now()));
    }
    const obs::SpanId sp =
        tr.begin(obs::Component::Tape, name_, "write", sim_.now());
    tr.link(parent, sp);
    tr.arg_num(sp, "bytes", bytes);
    const sim::Tick own0 = sim_.now();
    with_ownership(node, [this, object_id, bytes, own0, path = std::move(path),
                          done, next, sp]() mutable {
      obs::TraceRecorder& tr = obs_->trace();
      if (sim_.now() > own0) {
        tr.link(sp, tr.complete(obs::Component::Tape, name_, "handoff_wait",
                                own0, sim_.now()));
      }
      // Position to end-of-data for the append.
      const std::uint64_t end = cartridge_->bytes_used();
      const sim::Tick seek = timings_.seek_time(position_, end);
      if (seek > 0) {
        ++stats_.seeks;
        stats_.seek_time += seek;
        c_seeks_->inc();
        g_seek_seconds_->add(sim::to_seconds(seek));
        tr.link(sp, tr.complete(obs::Component::Tape, name_, "position",
                                sim_.now(), sim_.now() + seek));
      }
      position_ = end;
      sim_.after(seek, [this, object_id, bytes, path = std::move(path), done,
                        next, sp]() mutable {
        if (failed_) {
          // The drive died during the mechanical phase.
          obs_->trace().end(sp, sim_.now());
          if (done) done(nullptr, 0);
          next();
          return;
        }
        path.push_back(rate_pool_);
        const sim::Tick t0 = sim_.now();
        // Parent context links the transfer flow's probe span under the
        // write span (the profiler buckets it as tape transfer).
        obs::TraceRecorder& tr = obs_->trace();
        tr.push_parent(sp);
        const sim::FlowId fid = net_.start_flow(
            std::move(path), static_cast<double>(bytes),
            [this, object_id, bytes, t0, done, next, sp](const sim::FlowStats&) {
              interrupt_ = nullptr;
              stats_.transfer_time += sim_.now() - t0;
              // Copy: the cartridge's segment vector may reallocate before
              // the backhitch completes.
              const Segment seg = cartridge_->append(object_id, bytes);
              const std::uint64_t seq = cartridge_->segment_count();
              position_ = seg.offset + seg.bytes;
              ++stats_.write_txns;
              stats_.bytes_written += bytes;
              c_write_txns_->inc();
              c_bytes_written_->add(bytes);
              // HSM semantics: one file, one transaction — the drive stops
              // after each object (Sec 6.1).
              ++stats_.backhitches;
              stats_.backhitch_time += timings_.backhitch;
              c_backhitches_->inc();
              g_backhitch_seconds_->add(sim::to_seconds(timings_.backhitch));
              obs::TraceRecorder& tr = obs_->trace();
              tr.link(sp, tr.complete(obs::Component::Tape, name_, "position",
                                      sim_.now(),
                                      sim_.now() + timings_.backhitch));
              sim_.after(timings_.backhitch, [this, done, seg, seq, next, sp] {
                obs_->trace().end(sp, sim_.now());
                if (done) done(&seg, seq);
                next();
              });
            });
        tr.pop_parent();
        interrupt_ = [this, fid, done, next, sp] {
          // abort_flow() fails when the flow's completion is already
          // queued (degenerate 0-byte flows); let it run normally then.
          if (!net_.abort_flow(fid)) return;
          obs_->trace().end(sp, sim_.now());
          if (done) done(nullptr, 0);
          next();
        };
      });
    });
  });
}

void TapeDrive::read_object(NodeId node, std::uint64_t seq,
                            std::vector<sim::PathLeg> path,
                            std::function<void(const Segment*)> done,
                            obs::SpanId parent) {
  const sim::Tick enq = sim_.now();
  enqueue([this, node, seq, enq, parent, path = std::move(path),
           done = std::move(done)](std::function<void()> next) mutable {
    const Segment* seg = !failed_ && cartridge_ != nullptr &&
                                 !cartridge_->damaged()
                             ? cartridge_->segment_by_seq(seq)
                             : nullptr;
    if (seg == nullptr) {
      if (done) done(nullptr);
      next();
      return;
    }
    obs::TraceRecorder& tr = obs_->trace();
    if (sim_.now() > enq) {
      // The op sat behind earlier ops in the drive's FIFO.
      tr.link(parent, tr.complete(obs::Component::Tape, name_, "drive_wait",
                                  enq, sim_.now()));
    }
    const obs::SpanId sp =
        tr.begin(obs::Component::Tape, name_, "read", sim_.now());
    tr.link(parent, sp);
    tr.arg_num(sp, "bytes", seg->bytes);
    const sim::Tick own0 = sim_.now();
    with_ownership(node, [this, seg, own0, path = std::move(path), done, next,
                          sp]() mutable {
      obs::TraceRecorder& tr = obs_->trace();
      if (sim_.now() > own0) {
        tr.link(sp, tr.complete(obs::Component::Tape, name_, "handoff_wait",
                                own0, sim_.now()));
      }
      sim::Tick pre = 0;
      if (position_ != seg->offset) {
        // Non-sequential access: locate plus a repositioning stop.
        const sim::Tick seek = timings_.seek_time(position_, seg->offset);
        ++stats_.seeks;
        stats_.seek_time += seek;
        ++stats_.backhitches;
        stats_.backhitch_time += timings_.backhitch;
        c_seeks_->inc();
        g_seek_seconds_->add(sim::to_seconds(seek));
        c_backhitches_->inc();
        g_backhitch_seconds_->add(sim::to_seconds(timings_.backhitch));
        pre = seek + timings_.backhitch;
        position_ = seg->offset;
        tr.link(sp, tr.complete(obs::Component::Tape, name_, "position",
                                sim_.now(), sim_.now() + pre));
      }
      const Segment segv = *seg;  // copy against vector reallocation
      sim_.after(pre, [this, segv, path = std::move(path), done, next,
                       sp]() mutable {
        if (failed_ || cartridge_ == nullptr || cartridge_->damaged()) {
          // Failed (or the media went bad) during the mechanical phase.
          obs_->trace().end(sp, sim_.now());
          if (done) done(nullptr);
          next();
          return;
        }
        path.push_back(rate_pool_);
        const sim::Tick t0 = sim_.now();
        obs::TraceRecorder& tr = obs_->trace();
        tr.push_parent(sp);
        const sim::FlowId fid = net_.start_flow(
            std::move(path), static_cast<double>(segv.bytes),
            [this, segv, t0, done, next, sp](const sim::FlowStats&) {
              interrupt_ = nullptr;
              stats_.transfer_time += sim_.now() - t0;
              position_ = segv.offset + segv.bytes;
              ++stats_.read_txns;
              stats_.bytes_read += segv.bytes;
              c_read_txns_->inc();
              c_bytes_read_->add(segv.bytes);
              obs_->trace().end(sp, sim_.now());
              if (done) done(&segv);
              next();
            });
        tr.pop_parent();
        interrupt_ = [this, fid, done, next, sp] {
          if (!net_.abort_flow(fid)) return;
          obs_->trace().end(sp, sim_.now());
          if (done) done(nullptr);
          next();
        };
      });
    });
  });
}

}  // namespace cpa::tape
