#include "codegen/kernel_body.hpp"

#include <set>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace msc::codegen {

namespace {

int ndim(const GenContext& ctx) { return ctx.stencil->state()->ndim(); }

/// Name of the recombined coordinate variable of dimension d ("k","j","i").
std::string dim_var(const GenContext& ctx, int d) {
  return ctx.sched->kernel().axes()[static_cast<std::size_t>(d)].id_var;
}

/// IDX macro invocation for an access with per-dim offsets.
std::string idx_call(const GenContext& ctx, const std::array<std::int64_t, 3>& off) {
  std::vector<std::string> subs;
  for (int d = 0; d < ndim(ctx); ++d) {
    std::string s = dim_var(ctx, d);
    const auto o = off[static_cast<std::size_t>(d)];
    if (o > 0) s += " + " + std::to_string(o);
    if (o < 0) s += " - " + std::to_string(-o);
    subs.push_back(s);
  }
  return "IDX(" + join(subs, ", ") + ")";
}

/// IDX's argument list at the current interior point ("k, j, i").
std::string interior_index(const GenContext& ctx) {
  std::vector<std::string> subs;
  for (int d = 0; d < ndim(ctx); ++d) subs.push_back(dim_var(ctx, d));
  return join(subs, ", ");
}

}  // namespace

void emit_interior_loop(Emitter& e, const GenContext& ctx, const std::string& stmt) {
  for (int d = 0; d < ndim(ctx); ++d) {
    const std::string v = dim_var(ctx, d);
    e.open(strprintf("for (long %s = 0; %s < N%d; ++%s)", v.c_str(), v.c_str(), d, v.c_str()));
  }
  e.line(stmt);
  for (int d = 0; d < ndim(ctx); ++d) e.close();
}

std::vector<int> read_offsets(const GenContext& ctx) {
  std::set<int> s;
  for (const auto& term : ctx.linear.terms) s.insert(term.time_offset);
  return {s.rbegin(), s.rend()};
}

std::string in_name(int toff) { return "in_m" + std::to_string(-toff); }

std::string win_macro(const GenContext& ctx) {
  return strprintf("#define WIN %d", ctx.stencil->time_window());
}

std::string term_text(const exec::LinTerm& term, const std::string& index,
                      const std::string& load, const std::string& load_end) {
  return strprintf("%.17g * %s%s[%s]%s", term.coeff, load.c_str(),
                   in_name(term.time_offset).c_str(), index.c_str(), load_end.c_str());
}

std::string elem_type(const GenContext& ctx) {
  return ir::dtype_c_name(ctx.stencil->state()->dtype());
}

void emit_geometry(Emitter& e, const GenContext& ctx) {
  const auto& grid = ctx.stencil->state();
  const int nd = ndim(ctx);
  e.line("/* grid geometry (interior extents, halo, window, padded strides) */");
  for (int d = 0; d < nd; ++d)
    e.line(strprintf("#define N%d %ldL", d, static_cast<long>(grid->extent(d))));
  e.line(strprintf("#define HALO %ldL", static_cast<long>(grid->halo())));
  e.line(win_macro(ctx));
  for (int d = 0; d < nd; ++d) e.line(strprintf("#define P%d (N%d + 2*HALO)", d, d));
  // Row-major strides, last dim contiguous.
  if (nd == 3) {
    e.line("#define S0 (P1 * P2)");
    e.line("#define S1 (P2)");
    e.line("#define S2 1L");
    e.line(strprintf("#define IDX(%s, %s, %s) (((%s) + HALO) * S0 + ((%s) + HALO) * S1 + ((%s) + HALO))",
                     dim_var(ctx, 0).c_str(), dim_var(ctx, 1).c_str(), dim_var(ctx, 2).c_str(),
                     dim_var(ctx, 0).c_str(), dim_var(ctx, 1).c_str(), dim_var(ctx, 2).c_str()));
    e.line("#define PADDED (P0 * P1 * P2)");
  } else if (nd == 2) {
    e.line("#define S0 (P1)");
    e.line("#define S1 1L");
    e.line(strprintf("#define IDX(%s, %s) (((%s) + HALO) * S0 + ((%s) + HALO))",
                     dim_var(ctx, 0).c_str(), dim_var(ctx, 1).c_str(), dim_var(ctx, 0).c_str(),
                     dim_var(ctx, 1).c_str()));
    e.line("#define PADDED (P0 * P1)");
  } else {
    e.line("#define S0 1L");
    e.line(strprintf("#define IDX(%s) ((%s) + HALO)", dim_var(ctx, 0).c_str(),
                     dim_var(ctx, 0).c_str()));
    e.line("#define PADDED (P0)");
  }
  e.line(kSlotMacro);
  e.line();
}

void emit_alloc_and_seed(Emitter& e, const GenContext& ctx) {
  const std::string ty = elem_type(ctx);
  e.line("/* deterministic input seeding (replaces the paper's /data/rand.data);");
  e.line(" * interior cells only, in row-major order — bit-identical to the");
  e.line(" * values the MSC host executor seeds, so checksums are comparable. */");
  e.open("static uint64_t splitmix64(uint64_t *s)");
  e.line("uint64_t z = (*s += 0x9e3779b97f4a7c15ULL);");
  e.line("z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;");
  e.line("z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;");
  e.line("return z ^ (z >> 31);");
  e.close();
  e.line();
  e.open(strprintf("static void seed_grid(%s *g, uint64_t seed)", ty.c_str()));
  e.line("uint64_t s = seed;");
  emit_interior_loop(
      e, ctx,
      strprintf("g[IDX(%s)] = (%s)(-1.0 + 2.0 * ((double)(splitmix64(&s) >> 11) * 0x1.0p-53));",
                interior_index(ctx).c_str(), ty.c_str()));
  e.close();
  e.line();
}

std::string point_update(const GenContext& ctx) {
  std::string rhs;
  for (std::size_t n = 0; n < ctx.linear.terms.size(); ++n) {
    const auto& term = ctx.linear.terms[n];
    if (n != 0) rhs += "\n        + ";
    rhs += term_text(term, idx_call(ctx, term.offset));
  }
  return "out[IDX(" + interior_index(ctx) + ")] = " + rhs + ";";
}

void open_sweep(Emitter& e, const GenContext& ctx, const std::string& extra_params) {
  const std::string ty = elem_type(ctx);
  e.open(strprintf("static void sweep(%s *const *g, long t%s)", ty.c_str(),
                   extra_params.c_str()));
  e.line(strprintf("%s *restrict out = g[SLOT(t)];", ty.c_str()));
  for (int toff : read_offsets(ctx))
    e.line(strprintf("const %s *restrict %s = g[SLOT(t + (%d))];", ty.c_str(),
                     in_name(toff).c_str(), toff));
}

void emit_sweep(Emitter& e, const GenContext& ctx, ParallelStyle style) {
  const std::string ty = elem_type(ctx);
  const auto& axes = ctx.sched->axes();

  e.line("/* one scheduled stencil sweep at timestep t */");
  open_sweep(e, ctx, style == ParallelStyle::Athread ? ", int my_id" : "");
  e.line();

  int opened = 0;
  for (std::size_t n = 0; n < axes.size(); ++n) {
    const auto& ax = axes[n];
    if (ax.parallel && style == ParallelStyle::OpenMP)
      e.line(strprintf("#pragma omp parallel for num_threads(%d) schedule(static)",
                       ax.num_threads));
    if (ax.vectorize && style == ParallelStyle::OpenMP) e.line("#pragma omp simd");
    if (ax.unroll > 0 && style != ParallelStyle::Athread)
      e.line(strprintf("#pragma GCC unroll %d", ax.unroll));
    switch (ax.role) {
      case ir::AxisRole::Original:
        e.open(strprintf("for (long %s = %ld; %s < %ld; ++%s)", ax.id_var.c_str(),
                         static_cast<long>(ax.start), ax.id_var.c_str(),
                         static_cast<long>(ax.end), ax.id_var.c_str()));
        break;
      case ir::AxisRole::Outer:
        e.open(strprintf("for (long %s = 0; %s < %ld; ++%s)", ax.id_var.c_str(),
                         ax.id_var.c_str(), static_cast<long>(ax.trip_count()),
                         ax.id_var.c_str()));
        break;
      case ir::AxisRole::Inner: {
        e.open(strprintf("for (long %s = 0; %s < %ld; ++%s)", ax.id_var.c_str(),
                         ax.id_var.c_str(), static_cast<long>(ax.end - ax.start),
                         ax.id_var.c_str()));
        // Recombine the original coordinate and clamp remainder tiles.
        const std::string dv = dim_var(ctx, ax.dim);
        // Find the matching outer axis for the tile size.
        std::int64_t tile = 0;
        std::string outer_var;
        for (const auto& o : axes)
          if (o.dim == ax.dim && o.role == ir::AxisRole::Outer) {
            tile = o.tile_size;
            outer_var = o.id_var;
          }
        MSC_ASSERT(tile > 0) << "inner axis without outer partner";
        e.line(strprintf("const long %s = %s * %ld + %s;", dv.c_str(), outer_var.c_str(),
                         static_cast<long>(tile), ax.id_var.c_str()));
        e.line(strprintf("if (%s >= N%d) continue;", dv.c_str(), ax.dim));
        break;
      }
    }
    ++opened;
    if (ax.parallel && style == ParallelStyle::Athread) {
      e.line("/* CPE task ownership: tasks are dealt round-robin over the 64 CPEs */");
      e.line(strprintf("if ((int)(%s %% %d) != my_id) continue;", ax.id_var.c_str(),
                       ax.num_threads));
    }
    // SPM staging hooks at the compute_at level (Sunway slave code).
    if (style == ParallelStyle::Athread) {
      for (const auto& buf : ctx.sched->caches()) {
        if (ctx.sched->compute_at_depth(buf) != static_cast<int>(n)) continue;
        if (buf.is_read) {
          e.line(strprintf("/* DMA get: stage tile of %s (+halo) into SPM buffer %s */",
                           buf.tensor.c_str(), buf.name.c_str()));
          e.line(strprintf(
              "athread_get(PE_MODE, (void *)&%s[tile_origin], %s, sizeof(%s) * SPM_TILE, "
              "&dma_reply, 0, SPM_ROW_STRIDE, SPM_ROW_BYTES);",
              in_name(read_offsets(ctx).front()).c_str(), buf.name.c_str(), ty.c_str()));
        } else {
          e.line(strprintf("/* DMA put registered: SPM buffer %s flushes at loop exit */",
                           buf.name.c_str()));
        }
      }
    }
  }

  e.line(point_update(ctx));
  for (; opened > 0; --opened) e.close();
  e.close();
  e.line();
}

void emit_mpi_exchange(Emitter& e, const GenContext& ctx) {
  if (ctx.mpi_dims.empty()) return;
  const std::string ty = elem_type(ctx);
  const int nd = ndim(ctx);
  e.line("#ifdef MSC_WITH_MPI");
  e.line("/* asynchronous halo exchange over the cartesian process grid");
  e.line(strprintf(" * (%s); generated by the MSC communication library */",
                   [&] {
                     std::vector<std::string> d;
                     for (int x : ctx.mpi_dims) d.push_back(std::to_string(x));
                     return join(d, " x ");
                   }()
                       .c_str()));
  e.line(ty == "double" ? "#define MSC_MPI_ELEM MPI_DOUBLE" : "#define MSC_MPI_ELEM MPI_FLOAT");
  e.line();
  e.line("/* element count of one halo face of dimension `dim` */");
  e.open("static long face_count(int dim)");
  e.line("long n = HALO;");
  e.open(strprintf("for (int d = 0; d < %d; ++d)", nd));
  e.line("if (d != dim) n *= (N0 + 2 * HALO); /* padded cross-section */");
  e.close();
  e.line("return n;");
  e.close();
  e.line();
  e.line("/* pack / unpack one face (side 0 = low, 1 = high) */");
  e.open(strprintf("static void pack_face(const %s *g, int dim, int side, %s *buf)", ty.c_str(),
                   ty.c_str()));
  e.line("long n = 0;");
  e.line("const long lo = side == 0 ? 0 : (dim == 0 ? N0 : (dim == 1 ? N1 : N2)) - HALO;");
  e.line("/* inner-halo rows adjacent to the face, linearized in padded layout */");
  e.line("for (long off = 0; off < face_count(dim); ++off, ++n) buf[n] = g[lo * (dim == 0 ? S0 : dim == 1 ? S1 : S2) + off];");
  e.close();
  e.open(strprintf("static void unpack_face(%s *g, int dim, int side, const %s *buf)",
                   ty.c_str(), ty.c_str()));
  e.line("long n = 0;");
  e.line("const long lo = side == 0 ? -HALO : (dim == 0 ? N0 : (dim == 1 ? N1 : N2));");
  e.line("for (long off = 0; off < face_count(dim); ++off, ++n) g[lo * (dim == 0 ? S0 : dim == 1 ? S1 : S2) + off] = buf[n];");
  e.close();
  e.line();
  e.open(strprintf("static void exchange_halo(%s *g, MPI_Comm cart)", ty.c_str()));
  e.line(strprintf("MPI_Request req[%d];", 4 * nd));
  e.line("int nreq = 0;");
  e.line(strprintf("static %s sendbuf[%d][HALO * PADDED / ((N%d + 2*HALO))];", ty.c_str(),
                   2 * nd, nd - 1));
  e.line(strprintf("static %s recvbuf[%d][HALO * PADDED / ((N%d + 2*HALO))];", ty.c_str(),
                   2 * nd, nd - 1));
  e.open(strprintf("for (int dim = 0; dim < %d; ++dim)", nd));
  e.line("int lo, hi;");
  e.line("MPI_Cart_shift(cart, dim, 1, &lo, &hi);");
  e.line("/* pack inner-halo faces, post nonblocking sends/recvs both ways */");
  e.open("if (lo != MPI_PROC_NULL)");
  e.line("pack_face(g, dim, 0, sendbuf[2 * dim]);");
  e.line("MPI_Isend(sendbuf[2 * dim], face_count(dim), MSC_MPI_ELEM, lo, 0, cart, &req[nreq++]);");
  e.line("MPI_Irecv(recvbuf[2 * dim], face_count(dim), MSC_MPI_ELEM, lo, 0, cart, &req[nreq++]);");
  e.close();
  e.open("if (hi != MPI_PROC_NULL)");
  e.line("pack_face(g, dim, 1, sendbuf[2 * dim + 1]);");
  e.line("MPI_Isend(sendbuf[2 * dim + 1], face_count(dim), MSC_MPI_ELEM, hi, 0, cart, &req[nreq++]);");
  e.line("MPI_Irecv(recvbuf[2 * dim + 1], face_count(dim), MSC_MPI_ELEM, hi, 0, cart, &req[nreq++]);");
  e.close();
  e.close();
  e.line("MPI_Waitall(nreq, req, MPI_STATUSES_IGNORE);");
  e.open(strprintf("for (int dim = 0; dim < %d; ++dim)", nd));
  e.line("int lo, hi;");
  e.line("MPI_Cart_shift(cart, dim, 1, &lo, &hi);");
  e.line("if (lo != MPI_PROC_NULL) unpack_face(g, dim, 0, recvbuf[2 * dim]);");
  e.line("if (hi != MPI_PROC_NULL) unpack_face(g, dim, 1, recvbuf[2 * dim + 1]);");
  e.close();
  e.close();
  e.line("#endif /* MSC_WITH_MPI */");
  e.line();
}

void emit_main(Emitter& e, const GenContext& ctx, const std::string& sweep_call,
               const std::string& init) {
  const std::string ty = elem_type(ctx);
  e.open("int main(int argc, char **argv)");
  if (!init.empty()) e.line(init);
  e.line(strprintf("long timesteps = argc > 1 ? atol(argv[1]) : %ld;",
                   static_cast<long>(ctx.timesteps)));
  if (!ctx.mpi_dims.empty()) {
    e.line("#ifdef MSC_WITH_MPI");
    e.line("MPI_Init(&argc, &argv);");
    std::vector<std::string> dims, periods;
    for (int d : ctx.mpi_dims) {
      dims.push_back(std::to_string(d));
      periods.push_back("0");
    }
    e.line(strprintf("int dims[%zu] = {%s}, periods[%zu] = {%s};", dims.size(),
                     join(dims, ", ").c_str(), periods.size(), join(periods, ", ").c_str()));
    e.line("MPI_Comm cart;");
    e.line(strprintf("MPI_Cart_create(MPI_COMM_WORLD, %zu, dims, periods, 1, &cart);",
                     dims.size()));
    e.line("#endif");
  }
  e.line(strprintf("%s *g[WIN];", ty.c_str()));
  e.open("for (int w = 0; w < WIN; ++w)");
  e.line(strprintf("g[w] = (%s *)calloc((size_t)PADDED, sizeof(%s));", ty.c_str(), ty.c_str()));
  e.line("if (g[w] == NULL) { fprintf(stderr, \"alloc failed\\n\"); return 1; }");
  e.line("seed_grid(g[w], 42u + 0x51ed2701u * (unsigned)w);");
  e.close();
  e.line();
  e.open("for (long t = 1; t <= timesteps; ++t)");
  if (!ctx.mpi_dims.empty()) {
    e.line("#ifdef MSC_WITH_MPI");
    e.line("exchange_halo(g[SLOT(t - 1)], cart);");
    e.line("#endif");
  }
  e.line(sweep_call);
  e.close();
  e.line();
  e.line("/* interior checksum for cross-backend validation */");
  e.line("double checksum = 0.0;");
  e.line(strprintf("%s *final = g[SLOT(timesteps)];", ty.c_str()));
  const std::string at = interior_index(ctx);
  emit_interior_loop(e, ctx, strprintf("checksum += (double)final[IDX(%s)];", at.c_str()));
  e.line("printf(\"checksum %.17g\\n\", checksum);");
  if (ctx.emit_grid_dump) {
    e.line("/* conformance hook: element-wise grid dump (msc-conform --dump) */");
    e.open("if (argc > 2)");
    emit_interior_loop(e, ctx,
                       strprintf("printf(\"%%.17g\\n\", (double)final[IDX(%s)]);", at.c_str()));
    e.close();
  }
  e.line("for (int w = 0; w < WIN; ++w) free(g[w]);");
  if (!ctx.mpi_dims.empty()) {
    e.line("#ifdef MSC_WITH_MPI");
    e.line("MPI_Finalize();");
    e.line("#endif");
  }
  e.line("return 0;");
  e.close();
}

}  // namespace msc::codegen
