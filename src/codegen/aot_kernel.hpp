#pragma once

// The AOT driver of the shared C emitter (kernel_body.hpp): per lowered
// plan it emits one C translation unit for the dlopen host backend, with
// every geometric constant baked in and the stencil's full linear term
// list unrolled as straight-line accumulation statements.  Unlike the
// in-process sweep engine, the emitted kernel has no term cap: a 242-term
// 2d121pt_box becomes 242 constant-offset loads the host cc can schedule
// with full knowledge of the deltas.
//
// The step function takes a dim-0 row range, so the executor can run the
// schedule's row bands on the worker team (bands are disjoint and the
// read slots are not written during a step).  Each row runs in blocks of
// 8 points held in two 4-wide double accumulators — two independent add
// chains per block instead of one — plus a scalar remainder loop.
//
// Numerics contract (bit-identity with exec::detail::sweep_point_linear):
// each output element starts from 0.0, accumulates its terms in
// LinearKernel order as `acc += coeff * (double)src[...]` (in a vector lane
// or a scalar, the same IEEE operations either way), and is stored through
// one final cast — compiled with -ffp-contract=off so no FMA contraction
// can change a value.

#include <string>

#include "codegen/codegen.hpp"

namespace msc::codegen {

/// Emits the complete C source of the specialized kernel module for a
/// context built by make_aot_spec (time_tile blocks come from the
/// schedule's time_tile_depth).  Exported ABI (all C, default visibility):
///
///   void msc_aot_rows(void *const *slots, long t, long r0, long r1);
///   void msc_aot_run(void *const *slots, long t_begin, long t_end);
///   long msc_aot_padded_points(void);   /* per-slot element count */
///   int  msc_aot_window(void);          /* expected ring-slot count */
///   int  msc_aot_abi(void);             /* kMscAotAbiVersion */
///
/// msc_aot_rows computes step t over dim-0 interior rows [r0, r1) (for a
/// 1-D grid, the points [r0, r1) of the row); calls over disjoint ranges
/// of one step may run concurrently.  msc_aot_run is the serial whole-grid
/// loop over steps [t_begin, t_end], with time_tile blocks unrolled.
/// `slots[w]` is the base pointer of ring slot w (GridStorage::slot_data),
/// selected by the shared SLOT rotation.  The kernel writes interior cells
/// only, so pre-zeroed halos (Boundary::ZeroHalo) stay valid across every
/// step.
std::string gen_aot_kernel(const GenContext& ctx);

/// Bumped whenever the emitted ABI or numerics contract changes; baked
/// into the module and into the backend's cache key so stale shared
/// objects from older emitters can never be dlopen'd.
inline constexpr int kMscAotAbiVersion = 2;

}  // namespace msc::codegen
