#include "codegen/aot_kernel.hpp"

#include <array>

#include "codegen/kernel_body.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace msc::codegen {

namespace {

/// "x - 4231" / "x + 17" / "x" — the term's constant linear delta applied
/// to the row index variable.
std::string index_expr(std::int64_t delta) {
  if (delta == 0) return "x";
  if (delta < 0) return strprintf("x - %lld", static_cast<long long>(-delta));
  return strprintf("x + %lld", static_cast<long long>(delta));
}

/// Accumulator width of the blocked row loop, chosen by the compile
/// target: the emitted `MSC_LANES` is 8 doubles (one zmm) where the cc
/// defines __AVX512F__ and 4 (one ymm) elsewhere.  Each block holds two
/// accumulators, so 2 * MSC_LANES points keep two independent add chains
/// in flight at either width.  The term statements read the same at both
/// widths, so the source and the cc time do not depend on it; more
/// accumulators per block ran faster in isolation but cost 2x the compile
/// time (set-up of every cold-cache run), so the count stays two.
constexpr int kNarrowLanes = 4;
constexpr int kWideLanes = 8;

/// Emits the lane-width selection, the vector types and the load/store
/// macros of the blocked row loop.  `msc_hi(p)` loads the block's second
/// half, MSC_LANES elements past `p`: the term's index stays one literal
/// offset from `x` (a second index variable cost the cc ~10% more time on
/// the 242-term box).  Loads and stores go through element-aligned
/// `may_alias` vector types: unaligned access without an inline helper per
/// term statement (484 helper calls cost 2d121pt_box ~15% more cc time
/// than the macros).  f32 loads widen to double and stores narrow through
/// __builtin_convertvector, the same conversions as the scalar
/// `(double)src` and `(float)acc` casts.
void emit_vector_helpers(Emitter& e, const std::string& ty) {
  e.line("#if defined(__AVX512F__)");
  e.line(strprintf("#define MSC_LANES %d", kWideLanes));
  e.line("#else");
  e.line(strprintf("#define MSC_LANES %d", kNarrowLanes));
  e.line("#endif");
  e.line("#define MSC_BLOCK (2 * MSC_LANES)");
  e.line("typedef double msc_vd __attribute__((vector_size(MSC_LANES * 8)));");
  const int esz = ty == "double" ? 8 : 4;
  e.line(strprintf("typedef %s msc_vu __attribute__((vector_size(MSC_LANES * %d), aligned(%d), "
                   "may_alias));",
                   ty.c_str(), esz, esz));
  if (ty == "double") {
    e.line("#define msc_ld(p) (*(const msc_vu *)(p))");
    e.line("#define msc_st(p, v) (*(msc_vu *)(p) = (v))");
  } else {
    e.line("#define msc_ld(p) __builtin_convertvector(*(const msc_vu *)(p), msc_vd)");
    e.line("#define msc_st(p, v) (*(msc_vu *)(p) = __builtin_convertvector((v), msc_vu))");
  }
  e.line("#define msc_hi(p) msc_ld((p) + MSC_LANES)");
  e.line();
}

/// Emits the per-step sweep function over dim-0 rows [r0, r1) (for 1-D,
/// the points of the row itself): constant-bound inner loops, the full
/// term list unrolled into straight-line accumulation statements — once
/// per accumulator of the blocked loop, once more in the scalar remainder
/// (each loop only where the row extent lets it run).
void emit_step(Emitter& e, const GenContext& ctx, const std::array<std::int64_t, 3>& stride) {
  const ir::Tensor& grid = ctx.stencil->state();
  const int nd = grid->ndim();
  const auto halo = static_cast<long long>(grid->halo());
  const std::string ty = elem_type(ctx);

  std::string sig = strprintf("static void msc_aot_step(%s *restrict out", ty.c_str());
  for (int toff : read_offsets(ctx))
    sig += strprintf(", const %s *restrict %s", ty.c_str(), in_name(toff).c_str());
  sig += ", long r0, long r1)";
  e.open(sig);

  // Outer loops over the non-contiguous dims; the row base index folds the
  // halo shift of every dim (including the unit-stride one) into `base`.
  std::string base = std::to_string(halo);
  static const char* kVar[3] = {"c0", "c1", "c2"};
  for (int d = 0; d + 1 < nd; ++d) {
    const std::string lo = d == 0 ? "r0" : "0L";
    const std::string hi =
        d == 0 ? "r1" : strprintf("%lldL", static_cast<long long>(grid->extent(d)));
    e.open(strprintf("for (long %s = %s; %s < %s; ++%s)", kVar[d], lo.c_str(), kVar[d],
                     hi.c_str(), kVar[d]));
    base += strprintf(" + (%s + %lldL) * %lldL", kVar[d], halo,
                      static_cast<long long>(stride[static_cast<std::size_t>(d)]));
  }
  e.line(strprintf("const long base = %s;", base.c_str()));
  const std::int64_t row = grid->extent(nd - 1);
  const std::string row_end =
      nd == 1 ? std::string("r1") : strprintf("%lldL", static_cast<long long>(row));
  e.line(nd == 1 ? "long i = r0;" : "long i = 0;");
  // A literal row extent fixes which loops can run at each target block
  // (8 or 16 points).  A loop dead at both widths is left out, which saves
  // the cc a third of the statements; one dead at only one width is kept
  // under an #if on MSC_BLOCK (1-D bands vary, so they keep both loops).
  const bool block_any = nd == 1 || row >= 2 * kNarrowLanes;
  const bool block_all = nd == 1 || row >= 2 * kWideLanes;
  const bool rem_any = nd == 1 || row % (2 * kWideLanes) != 0;
  const bool rem_all = nd == 1 || row % (2 * kNarrowLanes) != 0;
  const auto guard = [&](bool all, const char* cond) {
    if (!all) e.line(strprintf("#if %lld %s", static_cast<long long>(row), cond));
  };
  const auto end_guard = [&](bool all) {
    if (!all) e.line("#endif");
  };

  // Blocked row loop: lane j of a0/a1 is point i+j / i+MSC_LANES+j, and
  // each lane adds its terms in LinearKernel order starting from 0.0 — per
  // point the same operation sequence as the scalar loop below.
  const auto term_delta = [&](const exec::LinTerm& term) {
    std::int64_t delta = 0;
    for (int d = 0; d < nd; ++d)
      delta += term.offset[static_cast<std::size_t>(d)] * stride[static_cast<std::size_t>(d)];
    return delta;
  };
  if (block_any) {
    guard(block_all, ">= MSC_BLOCK");
    e.open(strprintf("for (; i + MSC_BLOCK <= %s; i += MSC_BLOCK)", row_end.c_str()));
    e.line("const long x = base + i;");
    e.line("msc_vd a0 = {0.0}, a1 = a0;");
    for (const auto& term : ctx.linear.terms) {
      const std::string index = index_expr(term_delta(term));
      e.line("a0 += " + term_text(term, index, "msc_ld(&", ")") + "; a1 += " +
             term_text(term, index, "msc_hi(&", ")") + ";");
    }
    e.line("msc_st(&out[x], a0);");
    e.line("msc_st(&out[x + MSC_LANES], a1);");
    e.close();
    end_guard(block_all);
  }

  // Scalar remainder: the row's last (extent mod MSC_BLOCK) points.
  if (rem_any) {
    guard(rem_all, "% MSC_BLOCK");
    e.open(strprintf("for (; i < %s; ++i)", row_end.c_str()));
    e.line("const long x = base + i;");
    e.line("double acc = 0.0;");
    for (const auto& term : ctx.linear.terms)
      e.line("acc += " + term_text(term, index_expr(term_delta(term)), "(double)") + ";");
    e.line(strprintf("out[x] = (%s)acc;", ty.c_str()));
    e.close();
    end_guard(rem_all);
  }
  for (int d = 0; d + 1 < nd; ++d) e.close();
  e.close();  // function
  e.line();
}

/// One msc_aot_step call at timestep expression `t_expr` over dim-0 rows
/// [`r0`, `r1`).
std::string step_call(const GenContext& ctx, const std::string& t_expr, const std::string& r0,
                      const std::string& r1) {
  std::string call = strprintf("msc_aot_step(slots[SLOT(%s)]", t_expr.c_str());
  for (int toff : read_offsets(ctx))
    call += strprintf(", slots[SLOT((%s) + (%d))]", t_expr.c_str(), toff);
  return call + strprintf(", %s, %s);", r0.c_str(), r1.c_str());
}

}  // namespace

std::string gen_aot_kernel(const GenContext& ctx) {
  const ir::Tensor& grid = ctx.stencil->state();
  const int nd = grid->ndim();
  MSC_CHECK(nd >= 1 && nd <= 3) << "AOT kernels are rank 1-3";
  MSC_CHECK(!ctx.linear.terms.empty()) << "AOT kernel needs at least one linear term";
  const std::int64_t depth = std::max<std::int64_t>(1, ctx.sched->time_tile_depth());
  const std::string ty = elem_type(ctx);

  // Compile-time padded row-major strides, identical to GridStorage's.
  std::array<std::int64_t, 3> stride{0, 0, 0};
  std::int64_t padded = 1;
  std::vector<std::string> extents;
  for (int d = nd - 1; d >= 0; --d) {
    stride[static_cast<std::size_t>(d)] = padded;
    padded *= grid->extent(d) + 2 * grid->halo();
    extents.insert(extents.begin(), std::to_string(grid->extent(d)));
  }

  Emitter e;
  e.line(strprintf("/* msc AOT-specialized kernel: %s — generated, do not edit.",
                   ctx.prog_name.c_str()));
  e.line(strprintf(" * %d-D interior %s, halo %lld, window %d, %zu linear terms,", nd,
                   join(extents, "x").c_str(), static_cast<long long>(grid->halo()),
                   ctx.stencil->time_window(), ctx.linear.terms.size()));
  e.line(strprintf(" * time depth %lld. Numerics match exec sweep_point_linear bit for bit",
                   static_cast<long long>(depth)));
  e.line(" * (per point: ordered sum from 0.0 of coeff * (double)load, in MSC_LANES-wide");
  e.line(" * vector lanes or scalar; compile with -ffp-contract=off). */");
  e.line();
  e.line(win_macro(ctx));
  e.line(kSlotMacro);
  e.line("#define MSC_EXPORT __attribute__((visibility(\"default\")))");
  e.line();

  emit_vector_helpers(e, ty);
  emit_step(e, ctx, stride);

  const std::string slots_cast =
      strprintf("%s *const *slots = (%s *const *)slots_v;", ty.c_str(), ty.c_str());
  const std::string all_rows = strprintf("%lldL", static_cast<long long>(grid->extent(0)));
  e.open("MSC_EXPORT void msc_aot_rows(void *const *slots_v, long t, long r0, long r1)");
  e.line(slots_cast);
  e.line(step_call(ctx, "t", "r0", "r1"));
  e.close();
  e.line();

  e.open("MSC_EXPORT void msc_aot_run(void *const *slots_v, long t_begin, long t_end)");
  e.line(slots_cast);
  e.line("long t = t_begin;");
  if (depth > 1) {
    // time_tile fusion: the slot rotation of a full block is unrolled so the
    // cc sees a straight run of step calls per block.
    e.open(strprintf("for (; t + %lldL <= t_end; t += %lldL)", static_cast<long long>(depth - 1),
                     static_cast<long long>(depth)));
    for (std::int64_t k = 0; k < depth; ++k)
      e.line(step_call(ctx, strprintf("t + %lldL", static_cast<long long>(k)), "0L", all_rows));
    e.close();
  }
  e.open("for (; t <= t_end; ++t)");
  e.line(step_call(ctx, "t", "0L", all_rows));
  e.close();
  e.close();
  e.line();
  e.open("MSC_EXPORT long msc_aot_padded_points(void)");
  e.line(strprintf("return %lldL;", static_cast<long long>(padded)));
  e.close();
  e.open("MSC_EXPORT int msc_aot_window(void)");
  e.line(strprintf("return %d;", ctx.stencil->time_window()));
  e.close();
  e.open("MSC_EXPORT int msc_aot_lanes(void)");
  e.line("return MSC_LANES;");
  e.close();
  e.open("MSC_EXPORT int msc_aot_abi(void)");
  e.line(strprintf("return %d;", kMscAotAbiVersion));
  e.close();
  return e.str();
}

}  // namespace msc::codegen
