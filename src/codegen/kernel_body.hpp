#pragma once

// The one C emitter.  Every driver (c_backend, openmp_backend,
// athread_backend and the dlopen'd AOT module in aot_kernel) builds its
// source from these helpers: the kernel facts (read slots, ring rotation,
// the spelling of one term) are defined here once, next to the grid
// geometry macros, the scheduled loop nest, the per-point update
// statement, and the (optional) MPI halo-exchange section.

#include <string>
#include <vector>

#include "codegen/codegen.hpp"
#include "codegen/emitter.hpp"

namespace msc::codegen {

/// How the parallel axis is rendered.
enum class ParallelStyle {
  None,     ///< plain serial loop
  OpenMP,   ///< #pragma omp parallel for above the loop
  Athread,  ///< task-ownership guard: if (task % 64 != my_id) continue;
};

/// Distinct time offsets read by the stencil, most recent first: the read
/// slots of one step, in the order every driver binds them.
std::vector<int> read_offsets(const GenContext& ctx);

/// Name of the read slot at time offset `toff` ("in_m1" for t - 1).
std::string in_name(int toff);

/// `#define WIN <time window>`: the ring-slot count.
std::string win_macro(const GenContext& ctx);

/// SLOT(t): the ring slot of timestep t, GridStorage::slot_for_time's
/// rotation.  Needs WIN.
inline constexpr const char* kSlotMacro = "#define SLOT(t) ((int)((((t) % WIN) + WIN) % WIN))";

/// One term as every driver spells it, `<coeff> * <load>in_mK[<index>]<load_end>`,
/// with the coefficient in round-trip %.17g.  A driver passes its own index
/// expression and load wrapper (none for a plain read).
std::string term_text(const exec::LinTerm& term, const std::string& index,
                      const std::string& load = "", const std::string& load_end = "");

/// Emits `stmt` inside the row-major loop nest over the interior points.
void emit_interior_loop(Emitter& e, const GenContext& ctx, const std::string& stmt);

/// #define block with grid extents, halo, strides and window size.
void emit_geometry(Emitter& e, const GenContext& ctx);

/// SplitMix64 helper + allocation/seeding of the window slots.
void emit_alloc_and_seed(Emitter& e, const GenContext& ctx);

/// The scheduled sweep function `static void sweep(grids..., long t)`.
/// `style` selects the parallel rendering; Athread also adds SPM staging
/// comments/DMA hooks at the compute_at level.
void emit_sweep(Emitter& e, const GenContext& ctx, ParallelStyle style);

/// Opens `static void sweep(T *const *g, long t<extra_params>)` and binds
/// `out` and the read slots of step t.  The caller emits the loop nest and
/// closes the function.
void open_sweep(Emitter& e, const GenContext& ctx, const std::string& extra_params = "");

/// The per-point update statement reading the window slots.
std::string point_update(const GenContext& ctx);

/// Time loop + checksum main() body (single-node or MPI-guarded).  A
/// non-empty `init` is main()'s first statement (athread_init() on Sunway).
void emit_main(Emitter& e, const GenContext& ctx, const std::string& sweep_call,
               const std::string& init = "");

/// MPI halo-exchange helpers (pack/isend/irecv/unpack), MSC_WITH_MPI-guarded.
void emit_mpi_exchange(Emitter& e, const GenContext& ctx);

/// C type of the stencil's element ("double"/"float").
std::string elem_type(const GenContext& ctx);

}  // namespace msc::codegen
