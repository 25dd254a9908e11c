#include "comm/simmpi.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <exception>
#include <thread>

#include "prof/counters.hpp"
#include "prof/flight.hpp"
#include "prof/log.hpp"
#include "prof/timeline.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault_plan.hpp"
#include "resilience/retry.hpp"
#include "support/env.hpp"
#include "support/strings.hpp"

namespace msc::comm {

namespace {

/// Safety timeout when a fault injector is attached but no explicit timeout
/// was configured: chaos runs must never deadlock.
constexpr double kInjectorDefaultTimeoutMs = 200.0;

/// Wake-up slice for condvar sleeps when a cancel token is attached: an
/// external cancel (watchdog) does not notify our condvars, so sleepers
/// bound every wait by min(slice, remaining deadline) and re-poll.
constexpr double kCancelPollSliceMs = 25.0;

/// Self-limit for an injected hang when no cancel token is attached, so a
/// hang rule without a watchdog cannot deadlock a test run.
constexpr double kHangFallbackMs = 150.0;

std::chrono::steady_clock::duration ms_duration(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

CommConfig comm_config_from_env() {
  CommConfig cfg;
  const double ms = env_double("MSC_COMM_TIMEOUT_MS", 0.0, 0.0);
  if (ms > 0.0) cfg.timeout_ms = ms;
  return cfg;
}

int RankCtx::size() const { return world_->size(); }

Request RankCtx::isend(int dst, int tag, const void* data, std::int64_t bytes) {
  MSC_CHECK(dst >= 0 && dst < world_->size()) << "isend to invalid rank " << dst;
  MSC_CHECK(bytes >= 0) << "negative payload";
  auto& box = world_->mailbox(rank_, dst);
  auto* injector = world_->fault_injector();
  const bool resilient = world_->resilient();
  {
    std::lock_guard lock(box.m);
    const std::uint64_t seq = box.next_seq[tag]++;
    SimWorld::Message msg;
    msg.tag = tag;
    msg.seq = seq;
    msg.payload.resize(static_cast<std::size_t>(bytes));
    if (bytes > 0) std::memcpy(msg.payload.data(), data, static_cast<std::size_t>(bytes));
    if (resilient) {
      msg.checksum = resilience::fnv1a(msg.payload.data(), msg.payload.size());
      // Clean copy for retransmission, before any injected corruption.
      box.sent[{tag, seq}] = msg;
      // Evict stale entries of this tag (lockstep exchanges never have more
      // than a few in flight per stream).
      for (auto it = box.sent.lower_bound({tag, 0});
           it != box.sent.end() && it->first.first == tag && it->first.second + 32 <= seq;)
        it = box.sent.erase(it);
    }
    resilience::MessageVerdict verdict;
    if (injector != nullptr) verdict = injector->on_send(rank_, dst, tag, seq, bytes);
    if (verdict.corrupt_bit >= 0 && bytes > 0) {
      const std::size_t bit =
          static_cast<std::size_t>(verdict.corrupt_bit) % (msg.payload.size() * 8);
      msg.payload[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    }
    if (verdict.delay_ms > 0.0)
      msg.deliver_at = SimWorld::Clock::now() + ms_duration(verdict.delay_ms);
    if (!verdict.drop) {
      if (verdict.duplicate) box.messages.push_back(msg);
      box.messages.push_back(std::move(msg));
    }
  }
  box.cv.notify_all();
  Request req;
  req.kind = Request::Kind::Send;
  req.peer = dst;
  req.tag = tag;
  req.done = true;  // buffered send completes immediately
  return req;
}

Request RankCtx::irecv(int src, int tag, void* buf, std::int64_t bytes) {
  MSC_CHECK(src >= 0 && src < world_->size()) << "irecv from invalid rank " << src;
  Request req;
  req.kind = Request::Kind::Recv;
  req.peer = src;
  req.tag = tag;
  req.recv_buf = buf;
  req.recv_bytes = bytes;
  return req;
}

void RankCtx::wait(Request& req) {
  if (req.done) return;
  MSC_CHECK(req.kind == Request::Kind::Recv) << "only receives can be pending";
  // Blocked-receive time is the "wait" phase of this rank's timeline; the
  // span covers match scanning plus any sleep on the mailbox condvar.
  prof::RankPhaseScope wait_span(rank_, prof::Phase::Wait);
  auto& box = world_->mailbox(req.peer, rank_);
  const CommConfig& cfg = world_->comm_config();
  const bool resilient = world_->resilient();
  const double timeout_ms = world_->effective_timeout_ms();
  const CancelToken* cancel = world_->cancel_token();
  // Every condvar sleep below is clamped to min(its own wake time, the poll
  // slice bounded by the token's remaining deadline) so a fired token is
  // observed within one slice even though cancel() never notifies condvars.
  const auto clamp_wake = [&](SimWorld::Clock::time_point until) {
    if (cancel == nullptr) return until;
    const auto slice =
        SimWorld::Clock::now() + ms_duration(cancel->budget_ms(kCancelPollSliceMs));
    return std::min(until, slice);
  };

  int attempt = 0;
  bool have_deadline = false;
  SimWorld::Clock::time_point deadline{};

  std::unique_lock lock(box.m);
  for (;;) {
    if (cancel != nullptr) cancel->checkpoint("comm.wait");
    const std::uint64_t expected = box.delivered[req.tag];
    const auto now = SimWorld::Clock::now();

    // Scan this tag's stream: discard stale duplicates, pick the in-order
    // message (reordered future-seq messages stay queued until their turn).
    // Index-based: deque::erase invalidates every iterator.
    std::ptrdiff_t match = -1;
    auto earliest_delay = SimWorld::Clock::time_point::max();
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(box.messages.size());) {
      const auto& m = box.messages[static_cast<std::size_t>(i)];
      if (m.tag != req.tag) {
        ++i;
        continue;
      }
      if (m.seq < expected) {  // duplicate of an already-delivered message
        box.messages.erase(box.messages.begin() + i);
        prof::counter("resilience.duplicates_discarded").add(1);
        continue;
      }
      if (m.seq == expected) {
        if (m.deliver_at > now) {  // injected delay still pending
          earliest_delay = std::min(earliest_delay, m.deliver_at);
          ++i;
          continue;
        }
        match = i;
        break;
      }
      ++i;
    }

    if (match >= 0) {
      const auto& m = box.messages[static_cast<std::size_t>(match)];
      if (resilient && m.checksum != resilience::fnv1a(m.payload.data(), m.payload.size())) {
        // Corrupted in flight: discard and re-request the clean copy.
        prof::counter("resilience.corrupt_detected").add(1);
        prof::LogEvent(prof::LogLevel::Warn, "resilience.wait", "corrupt halo discarded")
            .integer("rank", rank_)
            .integer("peer", req.peer)
            .integer("tag", req.tag)
            .integer("seq", static_cast<long long>(expected));
        box.messages.erase(box.messages.begin() + match);
        if (world_->retransmit_locked(box, req.tag, expected))
          prof::counter("resilience.retries").add(1);
        continue;  // rescan: the retransmitted clean copy is queued
      }
      MSC_CHECK(static_cast<std::int64_t>(m.payload.size()) == req.recv_bytes)
          << "message size mismatch: expected " << req.recv_bytes << " B, got "
          << m.payload.size() << " B (tag " << req.tag << ")";
      if (req.recv_bytes > 0) std::memcpy(req.recv_buf, m.payload.data(), m.payload.size());
      box.messages.erase(box.messages.begin() + match);
      box.delivered[req.tag] = expected + 1;
      req.done = true;
      return;
    }

    // Nothing deliverable.  A failed peer can never be waited out — but a
    // message it sent before dying may still be recoverable from the
    // retransmit buffer; only when that is exhausted do we give up.
    if (world_->rank_failed(req.peer)) {
      if (resilient && world_->retransmit_locked(box, req.tag, expected)) {
        prof::counter("resilience.retries").add(1);
        continue;
      }
      throw RankFailed(strprintf("rank %d cannot complete recv: peer rank %d failed "
                                 "(tag %d, seq %llu)",
                                 rank_, req.peer, req.tag,
                                 static_cast<unsigned long long>(expected)),
                       rank_, req.peer);
    }

    if (earliest_delay != SimWorld::Clock::time_point::max()) {
      // The in-order message exists but carries an injected delay: sleep
      // until it matures (no retry accounting, nothing was lost).
      box.cv.wait_until(lock, clamp_wake(earliest_delay));
      continue;
    }

    if (timeout_ms <= 0.0) {  // fault-free fast path: block forever
      if (cancel == nullptr)
        box.cv.wait(lock);
      else
        box.cv.wait_until(lock, clamp_wake(SimWorld::Clock::time_point::max()));
      continue;
    }

    if (!have_deadline) {
      const double window = resilience::retry_wait_ms(
          timeout_ms, attempt,
          resilience::jitter_seed(cfg.seed, rank_, req.peer, req.tag, attempt));
      deadline = now + ms_duration(window);
      have_deadline = true;
    }
    // A slice-clamped wake is not an escalation timeout: only expiry of the
    // full retry window advances the ladder; slice wakes just re-poll.
    const auto wake = clamp_wake(deadline);
    bool timed_out;
    if (attempt > 0) {
      // Backoff sleep of a retry rung: attributed as recovery time.
      prof::RankPhaseScope retry_span(rank_, prof::Phase::Retry);
      timed_out = box.cv.wait_until(lock, wake) == std::cv_status::timeout;
    } else {
      timed_out = box.cv.wait_until(lock, wake) == std::cv_status::timeout;
    }
    timed_out = timed_out && wake >= deadline;
    if (!timed_out) continue;  // woken: rescan against the same deadline

    have_deadline = false;
    ++attempt;
    prof::counter("comm.wait.timeouts").add(1);
    const auto esc = resilience::escalation_for_attempt(attempt);
    if (esc == resilience::Escalation::Abort) {
      throw CodedError(
          ErrorCode::CommTimeout,
          strprintf("halo recv gave up: rank %d waited on peer %d tag %d seq %llu "
                    "through %d retries + resync (base timeout %g ms); message "
                    "presumed lost beyond the retransmit horizon — check the fault "
                    "plan or raise MSC_COMM_TIMEOUT_MS",
                    rank_, req.peer, req.tag, static_cast<unsigned long long>(expected),
                    resilience::kMaxRetries, timeout_ms));
    }
    const bool hit = resilient && world_->retransmit_locked(box, req.tag, expected);
    prof::counter(esc == resilience::Escalation::Resync ? "resilience.resyncs"
                                                        : "resilience.retries")
        .add(1);
    prof::LogEvent(esc == resilience::Escalation::Resync ? prof::LogLevel::Warn
                                                         : prof::LogLevel::Info,
                   "resilience.wait", resilience::escalation_name(esc))
        .integer("rank", rank_)
        .integer("peer", req.peer)
        .integer("tag", req.tag)
        .integer("seq", static_cast<long long>(expected))
        .integer("attempt", attempt)
        .boolean("retransmit_hit", hit);
  }
}

void RankCtx::wait_all(std::vector<Request>& reqs) {
  for (auto& r : reqs) wait(r);
}

void RankCtx::barrier() {
  prof::RankPhaseScope barrier_span(rank_, prof::Phase::Barrier);
  std::unique_lock lock(world_->barrier_mutex_);
  const auto throw_if_failed = [this] {
    const int f = world_->first_failed_rank();
    if (f >= 0)
      throw RankFailed(strprintf("rank %d cannot pass barrier: rank %d failed", rank_, f),
                       rank_, f);
  };
  throw_if_failed();
  const CancelToken* cancel = world_->cancel_token();
  const std::int64_t gen = world_->barrier_generation_;
  if (++world_->barrier_arrived_ == world_->size()) {
    world_->barrier_arrived_ = 0;
    ++world_->barrier_generation_;
    world_->barrier_cv_.notify_all();
  } else {
    const auto done = [&] {
      return world_->barrier_generation_ != gen || world_->first_failed_rank() >= 0;
    };
    if (cancel == nullptr) {
      world_->barrier_cv_.wait(lock, done);
    } else {
      // cancel() does not notify the barrier condvar; poll on a slice
      // bounded by the remaining deadline.  The arrival count we already
      // contributed stands, so peers still pass once everyone arrives.
      while (!done()) {
        cancel->checkpoint("comm.barrier");
        world_->barrier_cv_.wait_until(
            lock,
            SimWorld::Clock::now() + ms_duration(cancel->budget_ms(kCancelPollSliceMs)));
      }
    }
    // Completion wins when both raced; otherwise we were woken by a failure.
    if (world_->barrier_generation_ == gen) throw_if_failed();
  }
}

void RankCtx::fault_hook(std::int64_t step) {
  auto* injector = world_->fault_injector();
  if (injector == nullptr) return;
  const double stall = injector->stall_ms(rank_, step);
  if (stall > 0.0) std::this_thread::sleep_for(ms_duration(stall));
  if (injector->should_hang(rank_, step)) {
    // Simulated wedged compute thread: make no progress until the watchdog
    // (or deadline) fires the world's cancel token, then convert the hang
    // into a declared rank failure so checkpoint/restart recovery runs.
    const CancelToken* cancel = world_->cancel_token();
    const auto hung_at = SimWorld::Clock::now();
    for (;;) {
      const bool fired = cancel != nullptr && cancel->poll() != ErrorCode::Ok;
      const bool fallback = cancel == nullptr &&
                            SimWorld::Clock::now() - hung_at >= ms_duration(kHangFallbackMs);
      if (fired || fallback) {
        const std::uint64_t now = prof::flight_now_ns();
        prof::global_flight().record(prof::FlightKind::Crash, now, now, rank_, step);
        world_->declare_failed(rank_);
        throw RankCrashed(
            strprintf("rank %d hung at step %lld (%s)", rank_,
                      static_cast<long long>(step),
                      fired ? error_code_name(cancel->state()) : "hang fallback limit"),
            rank_, step);
      }
      std::this_thread::sleep_for(ms_duration(1.0));
    }
  }
  if (injector->should_crash(rank_, step)) {
    // Instant marker in the flight recorder: crash dumps show exactly where
    // in the event stream the fault plan fired.
    const std::uint64_t now = prof::flight_now_ns();
    prof::global_flight().record(prof::FlightKind::Crash, now, now, rank_, step);
    world_->declare_failed(rank_);
    throw RankCrashed(
        strprintf("rank %d crashed by fault plan at step %lld", rank_,
                  static_cast<long long>(step)),
        rank_, step);
  }
}

SimWorld::SimWorld(int nranks) : nranks_(nranks) {
  MSC_CHECK(nranks >= 1) << "world needs at least one rank";
  // Slots are lazy (see mailbox()): only the atomic pointer array is O(n^2);
  // the boxes themselves materialize on first touch of each (src, dst) pair.
  mailboxes_ = std::vector<std::atomic<Mailbox*>>(static_cast<std::size_t>(nranks) *
                                                  static_cast<std::size_t>(nranks));
  failed_.assign(static_cast<std::size_t>(nranks), Failure::None);
  config_ = comm_config_from_env();
}

SimWorld::~SimWorld() {
  for (auto& slot : mailboxes_) delete slot.load(std::memory_order_relaxed);
}

SimWorld::Mailbox& SimWorld::mailbox(int src, int dst) {
  auto& slot = mailboxes_[static_cast<std::size_t>(src) * static_cast<std::size_t>(nranks_) +
                          static_cast<std::size_t>(dst)];
  Mailbox* box = slot.load(std::memory_order_acquire);
  if (box != nullptr) return *box;
  std::lock_guard lock(mailbox_create_mutex_);
  box = slot.load(std::memory_order_relaxed);
  if (box == nullptr) {
    box = new Mailbox();
    slot.store(box, std::memory_order_release);
  }
  return *box;
}

double SimWorld::effective_timeout_ms() const {
  if (config_.timeout_ms > 0.0) return config_.timeout_ms;
  return injector_ != nullptr ? kInjectorDefaultTimeoutMs : 0.0;
}

void SimWorld::declare_failed(int rank) { mark_failed(rank, Failure::Root); }

void SimWorld::mark_failed(int rank, Failure how) {
  MSC_CHECK(rank >= 0 && rank < nranks_) << "declare_failed on invalid rank " << rank;
  {
    std::lock_guard lock(failed_mutex_);
    // A root declaration overrides a cascade, never the reverse.
    auto& state = failed_[static_cast<std::size_t>(rank)];
    if (how > state) state = how;
  }
  if (how == Failure::Root) prof::counter("resilience.rank_failures").add(1);
  // Wake every blocked waiter.  Briefly taking each lock orders the wakeup
  // after any waiter's failed-check, so no sleeper can miss the failure.
  for (auto& slot : mailboxes_) {
    Mailbox* box = slot.load(std::memory_order_acquire);
    if (box == nullptr) continue;  // never touched, nobody sleeping on it
    { std::lock_guard lock(box->m); }
    box->cv.notify_all();
  }
  { std::lock_guard lock(barrier_mutex_); }
  barrier_cv_.notify_all();
}

bool SimWorld::rank_failed(int rank) const {
  std::lock_guard lock(failed_mutex_);
  return failed_[static_cast<std::size_t>(rank)] != Failure::None;
}

int SimWorld::first_failed_rank() const {
  std::lock_guard lock(failed_mutex_);
  int cascaded = -1;
  for (int r = 0; r < nranks_; ++r) {
    const Failure state = failed_[static_cast<std::size_t>(r)];
    if (state == Failure::Root) return r;
    if (state == Failure::Cascaded && cascaded < 0) cascaded = r;
  }
  return cascaded;
}

bool SimWorld::retransmit_locked(Mailbox& box, int tag, std::uint64_t seq) {
  const auto it = box.sent.find({tag, seq});
  if (it == box.sent.end()) return false;
  Message copy = it->second;
  copy.deliver_at = Clock::time_point{};  // immediately deliverable
  box.messages.push_back(std::move(copy));
  prof::counter("resilience.retransmits").add(1);
  return true;
}

void SimWorld::run(const std::function<void(RankCtx&)>& body) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks_));
  std::vector<char> cascaded(static_cast<std::size_t>(nranks_), 0);
  threads.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([this, r, &body, &errors, &cascaded] {
      RankCtx ctx(this, r);
      try {
        body(ctx);
      } catch (const RankFailed&) {
        // Secondary casualty: this rank only failed because a peer did.
        // Declare it failed too, so a rank blocked on *it* raises
        // RankFailed at once instead of walking its whole retry ladder.
        // Messages it sent before dying stay deliverable: wait() scans the
        // mailbox before it looks at the failed set.
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        cascaded[static_cast<std::size_t>(r)] = 1;
        mark_failed(r, Failure::Cascaded);
      } catch (const Cancelled&) {
        // A shared token fires on every rank at once; prefer a genuine
        // root cause (crash, hang) over the cancellation it provoked.
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        cascaded[static_cast<std::size_t>(r)] = 2;
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Root cause first: a crash or genuine error beats the Cancelled storm a
  // watchdog raised on the other ranks, which in turn beats the RankFailed
  // cascade the failure triggered on the survivors.
  for (std::size_t r = 0; r < errors.size(); ++r)
    if (errors[r] && cascaded[r] == 0) std::rethrow_exception(errors[r]);
  for (std::size_t r = 0; r < errors.size(); ++r)
    if (errors[r] && cascaded[r] == 2) std::rethrow_exception(errors[r]);
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);

  // Stray-message audit: every rank finished, so a message still queued at
  // or above its tag's delivered watermark was sent and never received.
  for (std::size_t i = 0; i < mailboxes_.size(); ++i) {
    Mailbox* box = mailboxes_[i].load(std::memory_order_acquire);
    if (box == nullptr) continue;
    std::lock_guard lock(box->m);
    for (const Message& m : box->messages) {
      const auto it = box->delivered.find(m.tag);
      if (it != box->delivered.end() && m.seq < it->second) continue;  // late duplicate
      const auto n = static_cast<std::size_t>(nranks_);
      throw Error(strprintf("stray message after a completed run: src %zu dst %zu tag %d "
                            "seq %llu was sent but never received",
                            i / n, i % n, m.tag, static_cast<unsigned long long>(m.seq)));
    }
  }
}

}  // namespace msc::comm
