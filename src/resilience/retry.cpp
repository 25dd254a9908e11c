#include "resilience/retry.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace msc::resilience {

Escalation escalation_for_attempt(int attempt) {
  MSC_CHECK(attempt >= 0) << "negative wait attempt";
  if (attempt == 0) return Escalation::Wait;
  if (attempt <= kMaxRetries) return Escalation::Retry;
  if (attempt == kMaxRetries + 1) return Escalation::Resync;
  return Escalation::Abort;
}

const char* escalation_name(Escalation e) {
  switch (e) {
    case Escalation::Wait: return "wait";
    case Escalation::Retry: return "retry";
    case Escalation::Resync: return "resync";
    case Escalation::Abort: return "abort";
  }
  return "?";
}

double retry_wait_ms(double timeout_ms, int attempt, std::uint64_t seed) {
  MSC_CHECK(timeout_ms > 0.0) << "retry_wait_ms needs a positive timeout";
  MSC_CHECK(attempt >= 0) << "negative wait attempt";
  if (attempt == 0) return timeout_ms;
  double window = timeout_ms;
  for (int a = 0; a < attempt; ++a) {
    window *= kBackoffMultiplier;
    if (window >= timeout_ms * kCapMultiplier) break;
  }
  window = std::min(window, timeout_ms * kCapMultiplier);
  Rng rng(seed);
  const double u = rng.next_double();
  return window * (1.0 + kJitter * (u - 0.5));
}

std::uint64_t jitter_seed(std::uint64_t base_seed, int rank, int peer, int tag, int attempt) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ base_seed;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(rank));
  mix(static_cast<std::uint64_t>(peer));
  mix(static_cast<std::uint64_t>(tag));
  mix(static_cast<std::uint64_t>(attempt));
  return h;
}

}  // namespace msc::resilience
