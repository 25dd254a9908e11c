#include "support/cancel.hpp"

#include "support/strings.hpp"

namespace msc {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::Ok: return "ok";
    case ErrorCode::Cancelled: return "cancelled";
    case ErrorCode::DeadlineExpired: return "deadline_expired";
    case ErrorCode::WatchdogStall: return "watchdog_stall";
    case ErrorCode::CompileTimeout: return "compile_timeout";
    case ErrorCode::CompileCrashed: return "compile_crashed";
    case ErrorCode::Quarantined: return "quarantined";
    case ErrorCode::CommTimeout: return "comm_timeout";
    case ErrorCode::RankFailure: return "rank_failure";
    case ErrorCode::InvalidConfig: return "invalid_config";
    case ErrorCode::Internal: return "internal";
  }
  return "unknown";
}

Cancelled::Cancelled(ErrorCode code, std::string site)
    : CodedError(code, strprintf("run cancelled (%s) at checkpoint %s",
                                 error_code_name(code), site.c_str())),
      site_(std::move(site)) {}

Deadline Deadline::after_ms(double ms) {
  if (ms < 0.0) ms = 0.0;
  return Deadline(Clock::now() +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(ms)));
}

double Deadline::remaining_ms() const {
  if (!armed_) return std::numeric_limits<double>::infinity();
  const double ms =
      std::chrono::duration<double, std::milli>(when_ - Clock::now()).count();
  return ms > 0.0 ? ms : 0.0;
}

void CancelToken::cancel(ErrorCode reason) {
  MSC_CHECK(is_cancellation_code(reason))
      << "CancelToken::cancel takes a cancellation code, got "
      << error_code_name(reason);
  int expected = static_cast<int>(ErrorCode::Ok);
  state_.compare_exchange_strong(expected, static_cast<int>(reason),
                                 std::memory_order_release,
                                 std::memory_order_relaxed);
}

ErrorCode CancelToken::poll() const {
  polls_.fetch_add(1, std::memory_order_relaxed);
  const int latched = state_.load(std::memory_order_relaxed);
  if (latched != static_cast<int>(ErrorCode::Ok) || !deadline_.expired())
    return static_cast<ErrorCode>(latched);
  // Latch so every later poll agrees on the reason without a clock read.
  int expected = static_cast<int>(ErrorCode::Ok);
  state_.compare_exchange_strong(expected, static_cast<int>(ErrorCode::DeadlineExpired),
                                 std::memory_order_release, std::memory_order_relaxed);
  return static_cast<ErrorCode>(state_.load(std::memory_order_relaxed));
}

void CancelToken::checkpoint(const char* site) const {
  const ErrorCode code = poll();
  if (code != ErrorCode::Ok) throw Cancelled(code, site);
}

double CancelToken::budget_ms(double cap_ms) const {
  const double remain = deadline_.remaining_ms();
  if (cap_ms <= 0.0) return remain;
  return remain < cap_ms ? remain : cap_ms;
}

}  // namespace msc
