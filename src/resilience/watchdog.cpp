#include "resilience/watchdog.hpp"

#include <chrono>
#include <cstdlib>

#include "prof/counters.hpp"
#include "prof/flight.hpp"
#include "prof/log.hpp"
#include "support/env.hpp"
#include "support/strings.hpp"
#include "workload/report.hpp"

namespace msc::resilience {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

std::string watchdog_suspects() {
  const std::uint64_t now_ns = prof::flight_now_ns();
  std::string out;
  for (const auto& t : prof::global_flight().drain(1)) {
    // A ring no live thread owns holds an exited thread's last event: that
    // thread cannot be what the run is stuck on.
    if (!t.live) continue;
    if (!out.empty()) out += ", ";
    if (t.events.empty()) {
      out += strprintf("tid %d: no spans", t.tid);
      continue;
    }
    const auto& e = t.events.back();
    const std::uint64_t end_ns = e.start_ns + e.dur_ns;
    const double age_ms = end_ns >= now_ns ? 0.0 : (now_ns - end_ns) / 1e6;
    out += strprintf("tid %d: %s %.0f ms ago", t.tid, prof::flight_kind_name(e.kind),
                     age_ms);
  }
  return out.empty() ? "no threads registered" : out;
}

WatchdogConfig watchdog_config_from_env() {
  WatchdogConfig cfg;
  cfg.poll_ms = env_double("MSC_WATCHDOG_POLL_MS", cfg.poll_ms, 1.0);
  cfg.stall_ms = env_double("MSC_WATCHDOG_STALL_MS", cfg.stall_ms, 1.0);
  cfg.cancel_ms = env_double("MSC_WATCHDOG_CANCEL_MS", cfg.cancel_ms, 1.0);
  cfg.dump_ms = env_double("MSC_WATCHDOG_DUMP_MS", cfg.dump_ms, 1.0);
  if (const char* path = std::getenv("MSC_WATCHDOG_DUMP_PATH")) cfg.dump_path = path;
  return cfg;
}

const char* watchdog_stage_name(WatchdogStage stage) {
  switch (stage) {
    case WatchdogStage::Idle: return "idle";
    case WatchdogStage::Stalled: return "stalled";
    case WatchdogStage::Cancelled: return "cancelled";
    case WatchdogStage::Dumped: return "dumped";
  }
  return "?";
}

Watchdog::Watchdog(WatchdogConfig cfg, CancelToken* token)
    : cfg_(std::move(cfg)), token_(token) {
  MSC_CHECK(token_ != nullptr) << "watchdog needs a token to supervise";
  MSC_CHECK(cfg_.poll_ms > 0.0) << "watchdog poll period must be positive";
  thread_ = std::thread([this] { loop(); });
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::stop() {
  {
    std::lock_guard lock(m_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

double Watchdog::max_gap_ms() const {
  return static_cast<double>(max_gap_us_.load(std::memory_order_relaxed)) / 1e3;
}

void Watchdog::loop() {
  auto& flight = prof::global_flight();
  std::uint64_t last_total = flight.total_recorded();
  Clock::time_point last_change = Clock::now();
  const auto poll = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(cfg_.poll_ms));
  std::unique_lock lock(m_);
  for (;;) {
    cv_.wait_for(lock, poll, [this] { return stopping_; });
    if (stopping_) return;
    lock.unlock();

    const auto now = Clock::now();
    const std::uint64_t total = flight.total_recorded();
    if (total != last_total) {
      last_total = total;
      last_change = now;
    }
    const double gap = ms_between(last_change, now);
    const auto gap_us = static_cast<std::int64_t>(gap * 1e3);
    if (gap_us > max_gap_us_.load(std::memory_order_relaxed))
      max_gap_us_.store(gap_us, std::memory_order_relaxed);

    if (stage() < WatchdogStage::Stalled && gap >= cfg_.stall_ms)
      escalate(WatchdogStage::Stalled, gap);
    if (stage() < WatchdogStage::Cancelled && gap >= cfg_.cancel_ms)
      escalate(WatchdogStage::Cancelled, gap);
    if (stage() < WatchdogStage::Dumped && gap >= cfg_.dump_ms &&
        !cfg_.dump_path.empty())
      escalate(WatchdogStage::Dumped, gap);

    lock.lock();
  }
}

void Watchdog::escalate(WatchdogStage to, double gap_ms) {
  stage_.store(static_cast<int>(to), std::memory_order_release);
  switch (to) {
    case WatchdogStage::Stalled:
      prof::counter("watchdog.stalls").add(1);
      prof::LogEvent(prof::LogLevel::Warn, "watchdog", "run stalled")
          .num("gap_ms", gap_ms)
          .str("suspects", watchdog_suspects());
      break;
    case WatchdogStage::Cancelled:
      token_->cancel(ErrorCode::WatchdogStall);
      prof::counter("watchdog.cancels").add(1);
      prof::LogEvent(prof::LogLevel::Error, "watchdog", "cancelled stalled run")
          .num("gap_ms", gap_ms)
          .str("code", error_code_name(ErrorCode::WatchdogStall))
          .str("suspects", watchdog_suspects());
      break;
    case WatchdogStage::Dumped:
      workload::write_file(cfg_.dump_path, prof::flight_dump_json().dump() + "\n");
      prof::counter("watchdog.dumps").add(1);
      prof::LogEvent(prof::LogLevel::Error, "watchdog", "flight rings dumped")
          .num("gap_ms", gap_ms)
          .str("path", cfg_.dump_path);
      break;
    case WatchdogStage::Idle: break;
  }
}

}  // namespace msc::resilience
