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

/// Accumulator lanes of the blocked row loop: two 4-wide double vectors,
/// so each block of 8 points keeps two independent add chains in flight.
/// More accumulators ran faster in isolation but cost 2x the compile time
/// (setup of every cold-cache run), so the width is fixed, not tuned.
constexpr int kLanes = 4;
constexpr int kBlock = 2 * kLanes;

/// Emits the vector types and the load/store macros of the blocked row
/// loop.  Loads and stores go through element-aligned `may_alias` vector
/// types: unaligned access without an inline helper per term statement
/// (484 helper calls cost 2d121pt_box ~15% more cc time than the macros).
/// f32 loads widen to double and stores narrow through
/// __builtin_convertvector, the same conversions as the scalar
/// `(double)src` and `(float)acc` casts.
void emit_vector_helpers(Emitter& e, const std::string& ty) {
  e.line(strprintf("typedef double msc_vd __attribute__((vector_size(%d)));",
                   kLanes * 8));
  const int esz = ty == "double" ? 8 : 4;
  e.line(strprintf("typedef %s msc_vu __attribute__((vector_size(%d), aligned(%d), "
                   "may_alias));",
                   ty.c_str(), kLanes * esz, esz));
  if (ty == "double") {
    e.line("#define msc_ld(p) (*(const msc_vu *)(p))");
    e.line("#define msc_st(p, v) (*(msc_vu *)(p) = (v))");
  } else {
    e.line("#define msc_ld(p) __builtin_convertvector(*(const msc_vu *)(p), msc_vd)");
    e.line("#define msc_st(p, v) (*(msc_vu *)(p) = __builtin_convertvector((v), msc_vu))");
  }
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
  // A literal row extent fixes which loops can run; leaving out the dead
  // one saves the cc a third of the statements (1-D bands vary, so they
  // keep both).
  const bool blocked = nd == 1 || row >= kBlock;
  const bool remainder = nd == 1 || row % kBlock != 0;

  // Blocked row loop: lane j of a0/a1 is point i+j / i+4+j, and each lane
  // adds its terms in LinearKernel order starting from 0.0 — per point the
  // same operation sequence as the scalar loop below.
  const auto term_delta = [&](const exec::LinTerm& term) {
    std::int64_t delta = 0;
    for (int d = 0; d < nd; ++d)
      delta += term.offset[static_cast<std::size_t>(d)] * stride[static_cast<std::size_t>(d)];
    return delta;
  };
  if (blocked) {
    e.open(strprintf("for (; i + %d <= %s; i += %d)", kBlock, row_end.c_str(), kBlock));
    e.line("const long x = base + i;");
    e.line("msc_vd a0 = {0.0, 0.0, 0.0, 0.0}, a1 = a0;");
    for (const auto& term : ctx.linear.terms) {
      const std::int64_t delta = term_delta(term);
      e.line("a0 += " + term_text(term, index_expr(delta), "msc_ld(&", ")") + "; a1 += " +
             term_text(term, index_expr(delta + kLanes), "msc_ld(&", ")") + ";");
    }
    e.line("msc_st(&out[x], a0);");
    e.line(strprintf("msc_st(&out[x + %d], a1);", kLanes));
    e.close();
  }

  // Scalar remainder: the row's last (extent mod 8) points.
  if (remainder) {
    e.open(strprintf("for (; i < %s; ++i)", row_end.c_str()));
    e.line("const long x = base + i;");
    e.line("double acc = 0.0;");
    for (const auto& term : ctx.linear.terms)
      e.line("acc += " + term_text(term, index_expr(term_delta(term)), "(double)") + ";");
    e.line(strprintf("out[x] = (%s)acc;", ty.c_str()));
    e.close();
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
  e.line(" * (per point: ordered sum from 0.0 of coeff * (double)load, in 4-wide vector");
  e.line(" * lanes or scalar; compile with -ffp-contract=off). */");
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
  e.open("MSC_EXPORT int msc_aot_abi(void)");
  e.line(strprintf("return %d;", kMscAotAbiVersion));
  e.close();
  return e.str();
}

}  // namespace msc::codegen
