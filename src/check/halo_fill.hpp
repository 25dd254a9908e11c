#pragma once

// The halo exchanger's oracle: the global halo fill.  Every rank copies its
// interior out of one global ring, zero-fills its halos and exchanges each
// slot once with comm::exchange_halo_plan; its whole padded ring — halos,
// edges and corners — must then equal, bit for bit, the global ring read at
// the rank's offset, once GridStorage::fill_halo has filled the global halos
// (Periodic when the decomposition wraps, else ZeroHalo).  The oracle shares
// no code with the exchanger, and it checks corners a star stencil never
// reads.  test_halo_plan runs it over its case matrix; bench_halo_exchange
// runs it before timing anything.

#include <string>

#include "comm/decompose.hpp"
#include "exec/grid.hpp"

namespace msc::check {

/// Runs the oracle on `global` (every slot's interior seeded; its halos
/// are ignored) decomposed by `dec`, whose dims must all wrap or none.
/// Returns "" when every rank matches, else the first mismatching point as
/// "rank R slot S at (x,y,z): got G, want W".
std::string halo_fill_mismatch(const exec::GridStorage<double>& global,
                               const comm::CartDecomp& dec);

}  // namespace msc::check
