#pragma once

// Automatic case shrinking: given a CaseSpec that fails its oracle
// comparison, greedily simplify it while the failure (as judged by a
// caller-supplied predicate) persists.  The result is the minimal
// reproducer printed by tools/msc-conform, replayable from its seed plus
// the recorded mutations.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/case_gen.hpp"

namespace msc::check {

/// Returns true when `spec` still reproduces the failure under shrink.
using StillFails = std::function<bool(const CaseSpec&)>;

struct ShrinkResult {
  CaseSpec spec;                      ///< the minimal failing case
  int attempts = 0;                   ///< candidate specs evaluated
  int accepted = 0;                   ///< shrink steps that kept the failure
  std::vector<std::string> steps;     ///< accepted mutations, in order
};

/// Greedy fix-point shrink.  Each pass tries, in order: halving the
/// timestep count, shrinking each extent towards its legal minimum,
/// dropping neighbor terms (halves, then singles), reducing the time
/// window, stripping schedule primitives (time_tile depth -> 1, spm
/// pipeline, parallel, reorder, tile) and tightening the radius to the
/// farthest remaining offset.  A mutation is kept only if `still_fails`
/// accepts it; passes repeat until none is accepted or `max_attempts`
/// candidates were evaluated.
ShrinkResult shrink_case(const CaseSpec& failing, const StillFails& still_fails,
                         int max_attempts = 200);

}  // namespace msc::check
