#pragma once

// Functional simulator of one Sunway core group executing an MSC-scheduled
// stencil (paper §4.3, Fig. 4d/e).
//
// This is the substitute for running the generated athread code on real
// SW26010 hardware.  It is *functional*: tiles are genuinely staged through
// SPM-sized buffers with DMA memcpys and the compute reads only the staged
// data, so halo-staging or indexing bugs corrupt the numerics (tests
// compare against the serial reference).  Simulated time combines a
// per-CPE compute model, the DMA latency/bandwidth model (dma.hpp), and
// the shared memory-bus cap.
//
// Pipeline per timestep, per tile (round-robin over the 64 CPEs):
//   1. DMA-get the tile + stencil halo of every input time-slot into the
//      SPM read buffer (one transaction per contiguous row),
//   2. accumulate all linear terms into the SPM write buffer,
//   3. DMA-put the write buffer back to the output slot.
// SPM budget (64 KB) is enforced by SpmAllocator — oversized tiles throw.

#include <array>
#include <cstdint>
#include <vector>

#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "ir/stencil.hpp"
#include "machine/machine.hpp"
#include "prof/counters.hpp"
#include "prof/timeline.hpp"
#include "schedule/schedule.hpp"
#include "sunway/dma.hpp"
#include "sunway/spm.hpp"
#include "support/buffer.hpp"
#include "support/error.hpp"

namespace msc::sunway {

struct CgSimResult {
  double seconds = 0.0;          ///< simulated wall time of the whole run
  double compute_seconds = 0.0;  ///< busiest-CPE compute, summed over steps
  double dma_seconds = 0.0;      ///< busiest-CPE DMA, summed over steps
  DmaStats dma;                  ///< aggregate transfer statistics
  double spm_utilization = 0.0;  ///< bytes allocated / 64 KB
  std::int64_t spm_high_water_bytes = 0;  ///< peak SPM occupancy per CPE
  double reuse_factor = 0.0;     ///< SPM-served access bytes per DMA byte
  std::int64_t tiles = 0;        ///< tiles executed per timestep
  std::int64_t timesteps = 0;
  /// Per-step compute/DMA phase spans of "rank" 0 (the core group) in
  /// simulated seconds — model outputs, not measurements.  Each step's
  /// spans start where the previous step ended, so their union is
  /// `seconds`.
  std::vector<prof::PhaseSpan> spans;
};

/// SPM bytes run_cg_sim will allocate for `sched`/`st` (read box incl. halo
/// plus the write tile), and whether that fits the machine's per-CPE
/// scratchpad.  The conformance harness prechecks this so an over-budget
/// random schedule is reported as "skipped", not as a divergence.
std::int64_t cg_sim_spm_bytes(const ir::StencilDef& st, const schedule::Schedule& sched,
                              std::int64_t elem_bytes);
bool cg_sim_fits_spm(const ir::StencilDef& st, const schedule::Schedule& sched,
                     std::int64_t elem_bytes, const machine::MachineModel& m);

/// Executes timesteps t_begin..t_end of `st` under `sched` on the CG model
/// `m`; numerics land in `state` exactly as run_reference would produce.
/// `double_buffer` toggles the compute/DMA overlap of the generated code's
/// ping-pong SPM buffers (§5.6's streaming/pipelining; disabling it models
/// a naive blocking pipeline for the ablation bench).
template <typename T>
CgSimResult run_cg_sim(const ir::StencilDef& st, const schedule::Schedule& sched,
                       exec::GridStorage<T>& state, std::int64_t t_begin, std::int64_t t_end,
                       exec::Boundary bc, const exec::Bindings& bindings,
                       const machine::MachineModel& m, bool double_buffer = true) {
  MSC_CHECK(t_begin <= t_end) << "empty time range";
  MSC_CHECK(m.cache_less()) << "run_cg_sim expects a scratchpad machine model";
  const auto lin = exec::linearize_stencil(st, bindings);
  MSC_CHECK(lin.has_value()) << "Sunway simulation requires an affine stencil";

  const int nd = state.ndim();
  const std::int64_t radius = st.max_radius();
  const auto esz = static_cast<std::int64_t>(sizeof(T));
  const int cpes = m.cores;

  // Tile geometry from the schedule (full extent when a dim was not split).
  std::array<std::int64_t, 3> tile{1, 1, 1}, ntiles{1, 1, 1}, extent{1, 1, 1};
  std::int64_t total_tiles = 1, tile_interior = 1, staged_elems = 1;
  for (int d = 0; d < nd; ++d) {
    extent[static_cast<std::size_t>(d)] = state.extent(d);
    tile[static_cast<std::size_t>(d)] = std::min(sched.tile_extent(d), state.extent(d));
    ntiles[static_cast<std::size_t>(d)] =
        (state.extent(d) + tile[static_cast<std::size_t>(d)] - 1) /
        tile[static_cast<std::size_t>(d)];
    total_tiles *= ntiles[static_cast<std::size_t>(d)];
    tile_interior *= tile[static_cast<std::size_t>(d)];
    staged_elems *= tile[static_cast<std::size_t>(d)] + 2 * radius;
  }

  // SPM budget check + buffers: one read buffer (reused across time terms)
  // and one write buffer, as bound by cache_read/cache_write.
  SpmAllocator spm(m.spm_bytes_per_core);
  spm.allocate("read_buffer", staged_elems * esz);
  spm.allocate("write_buffer", tile_interior * esz);

  AlignedBuffer read_buf(static_cast<std::size_t>(staged_elems) * sizeof(T));
  AlignedBuffer write_buf(static_cast<std::size_t>(tile_interior) * sizeof(double));

  // Distinct input time offsets, and per-offset term groups.
  std::vector<int> offsets;
  for (const auto& term : lin->terms) {
    bool seen = false;
    for (int o : offsets) seen |= o == term.time_offset;
    if (!seen) offsets.push_back(term.time_offset);
  }

  DmaConfig dma_cfg;
  dma_cfg.latency_us = m.dma_latency_us;
  dma_cfg.bandwidth_gbs = m.dma_bw_gbs_per_core;

  CgSimResult result;
  result.spm_utilization = spm.utilization();
  result.spm_high_water_bytes = spm.high_water();
  result.tiles = total_tiles;
  prof::gauge("sunway.spm.high_water_bytes").record_max(spm.high_water());

  const double cpe_peak_flops = m.freq_ghz * 1e9 * m.flops_per_cycle_fp64;
  const double compute_eff = 0.55;

  for (int back = 1; back < st.time_window(); ++back)
    state.fill_halo(state.slot_for_time(t_begin - back), bc);

  // Staged-box local strides (row-major, last dim contiguous).
  std::array<std::int64_t, 3> lstride{0, 0, 0};
  {
    std::int64_t s = 1;
    for (int d = nd - 1; d >= 0; --d) {
      lstride[static_cast<std::size_t>(d)] = s;
      s *= tile[static_cast<std::size_t>(d)] + 2 * radius;
    }
  }

  for (std::int64_t t = t_begin; t <= t_end; ++t) {
    std::vector<double> cpe_compute(static_cast<std::size_t>(cpes), 0.0);
    std::vector<double> cpe_dma(static_cast<std::size_t>(cpes), 0.0);
    T* out_slot = state.slot_data(state.slot_for_time(t));
    std::int64_t step_dma_bytes = 0;

    for (std::int64_t tidx = 0; tidx < total_tiles; ++tidx) {
      const int cpe = static_cast<int>(tidx % cpes);
      DmaEngine dma(dma_cfg);

      // Tile origin in interior coordinates.
      std::array<std::int64_t, 3> origin{0, 0, 0};
      {
        std::int64_t rem = tidx;
        for (int d = nd - 1; d >= 0; --d) {
          origin[static_cast<std::size_t>(d)] =
              (rem % ntiles[static_cast<std::size_t>(d)]) * tile[static_cast<std::size_t>(d)];
          rem /= ntiles[static_cast<std::size_t>(d)];
        }
      }
      std::array<std::int64_t, 3> tsize{1, 1, 1};
      for (int d = 0; d < nd; ++d)
        tsize[static_cast<std::size_t>(d)] =
            std::min(tile[static_cast<std::size_t>(d)],
                     extent[static_cast<std::size_t>(d)] - origin[static_cast<std::size_t>(d)]);

      auto* wacc = write_buf.as<double>().data();
      std::fill(wacc, wacc + tile_interior, 0.0);
      std::int64_t flops = 0;

      for (int toff : offsets) {
        // ---- DMA get: staged box (tile + radius halo) row by row ------
        const T* src_slot = state.slot_data(state.slot_for_time(t + toff));
        T* rbuf = read_buf.as<T>().data();
        const std::int64_t row_len = tsize[static_cast<std::size_t>(nd - 1)] + 2 * radius;
        std::array<std::int64_t, 3> b{0, 0, 0};  // staged-box coords (dims 0..nd-2)
        const auto box_extent = [&](int d) {
          return tsize[static_cast<std::size_t>(d)] + 2 * radius;
        };
        auto stage_row = [&](std::array<std::int64_t, 3> box) {
          std::array<std::int64_t, 3> g{0, 0, 0};
          for (int d = 0; d < nd - 1; ++d)
            g[static_cast<std::size_t>(d)] =
                origin[static_cast<std::size_t>(d)] + box[static_cast<std::size_t>(d)] - radius;
          g[static_cast<std::size_t>(nd - 1)] = origin[static_cast<std::size_t>(nd - 1)] - radius;
          std::int64_t l = 0;
          for (int d = 0; d < nd - 1; ++d)
            l += box[static_cast<std::size_t>(d)] * lstride[static_cast<std::size_t>(d)];
          dma.get(rbuf + l, src_slot + state.index(g), row_len * esz, row_len * esz);
        };
        if (nd == 1) {
          stage_row(b);
        } else if (nd == 2) {
          for (b[0] = 0; b[0] < box_extent(0); ++b[0]) stage_row(b);
        } else {
          for (b[0] = 0; b[0] < box_extent(0); ++b[0])
            for (b[1] = 0; b[1] < box_extent(1); ++b[1]) stage_row(b);
        }

        // ---- accumulate every term of this time offset from SPM -------
        for (const auto& term : lin->terms) {
          if (term.time_offset != toff) continue;
          std::int64_t tdelta = 0;
          for (int d = 0; d < nd; ++d)
            tdelta += term.offset[static_cast<std::size_t>(d)] *
                      lstride[static_cast<std::size_t>(d)];
          // Contiguous last-dim rows in both buffers (lstride/wstride last
          // component is 1): accumulate row-at-a-time via axpy_row, same
          // per-point expression shape as before, so bit-identical.
          std::array<std::int64_t, 3> wstride{1, 1, 1};
          for (int d = nd - 2; d >= 0; --d)
            wstride[static_cast<std::size_t>(d)] =
                wstride[static_cast<std::size_t>(d + 1)] * tsize[static_cast<std::size_t>(d + 1)];
          const std::int64_t row = tsize[static_cast<std::size_t>(nd - 1)];
          std::array<std::int64_t, 3> p{0, 0, 0};
          auto accumulate_row = [&](std::array<std::int64_t, 3> q) {
            std::int64_t lbase = radius + tdelta, wbase = 0;
            for (int d = 0; d < nd - 1; ++d) {
              lbase += (q[static_cast<std::size_t>(d)] + radius) *
                       lstride[static_cast<std::size_t>(d)];
              wbase += q[static_cast<std::size_t>(d)] * wstride[static_cast<std::size_t>(d)];
            }
            exec::detail::axpy_row(wacc + wbase, rbuf + lbase, term.coeff, row);
          };
          if (nd == 1) {
            accumulate_row(p);
          } else if (nd == 2) {
            for (p[0] = 0; p[0] < tsize[0]; ++p[0]) accumulate_row(p);
          } else {
            for (p[0] = 0; p[0] < tsize[0]; ++p[0])
              for (p[1] = 0; p[1] < tsize[1]; ++p[1]) accumulate_row(p);
          }
          flops += 2 * tsize[0] * (nd > 1 ? tsize[1] : 1) * (nd > 2 ? tsize[2] : 1);
        }
      }

      // ---- DMA put: write tile interior back, row by row ---------------
      {
        std::array<std::int64_t, 3> p{0, 0, 0};
        const std::int64_t row = tsize[static_cast<std::size_t>(nd - 1)];
        auto put_row = [&](std::array<std::int64_t, 3> q) {
          std::array<std::int64_t, 3> g = origin;
          std::int64_t widx = 0, wstride = row;
          for (int d = nd - 2; d >= 0; --d) {
            g[static_cast<std::size_t>(d)] += q[static_cast<std::size_t>(d)];
            widx += q[static_cast<std::size_t>(d)] * wstride;
            wstride *= tsize[static_cast<std::size_t>(d)];
          }
          // Cast the accumulated doubles into the output element type and
          // account the put as one coalesced row transfer.
          T* dst = out_slot + state.index(g);
          for (std::int64_t i = 0; i < row; ++i) dst[i] = static_cast<T>(wacc[widx + i]);
          dma.charge(row * esz, row * esz);
        };
        if (nd == 1) {
          put_row(p);
        } else if (nd == 2) {
          for (p[0] = 0; p[0] < tsize[0]; ++p[0]) put_row(p);
        } else {
          for (p[0] = 0; p[0] < tsize[0]; ++p[0])
            for (p[1] = 0; p[1] < tsize[1]; ++p[1]) put_row(p);
        }
      }

      cpe_compute[static_cast<std::size_t>(cpe)] +=
          static_cast<double>(flops) / (cpe_peak_flops * compute_eff);
      cpe_dma[static_cast<std::size_t>(cpe)] += dma.stats().seconds;
      step_dma_bytes += dma.stats().bytes;
      result.dma.transactions += dma.stats().transactions;
      result.dma.bytes += dma.stats().bytes;
      result.dma.seconds += dma.stats().seconds;
    }

    // Step time: busiest CPE — with double buffering compute hides under
    // DMA (or vice versa); a blocking pipeline serializes them — floored
    // by the shared memory bus.
    double busiest = 0.0, busiest_c = 0.0, busiest_d = 0.0;
    for (int c = 0; c < cpes; ++c) {
      const double ct = cpe_compute[static_cast<std::size_t>(c)];
      const double dt = cpe_dma[static_cast<std::size_t>(c)];
      busiest = std::max(busiest, double_buffer ? std::max(ct, dt) : ct + dt);
      busiest_c = std::max(busiest_c, ct);
      busiest_d = std::max(busiest_d, dt);
    }
    const double bus_floor = static_cast<double>(step_dma_bytes) / (m.mem_bw_gbs * 1e9);
    const double step_seconds = std::max(busiest, bus_floor);
    const double step_dma = std::max(busiest_d, bus_floor);
    // Simulated-time spans start where the previous step ended, so the
    // critical-path report's wall time equals the simulated wall time.
    auto& spans = result.spans;
    const double t0 = result.seconds;
    if (busiest_c > 0.0) spans.push_back({0, prof::Phase::Compute, t0, t0 + busiest_c});
    if (double_buffer) {
      // Overlapped pipeline: compute and DMA run concurrently, so the two
      // spans share the step start; their union is the step time
      // (step = max(busiest_c, busiest_d, bus_floor)).
      if (step_dma > 0.0) spans.push_back({0, prof::Phase::Dma, t0, t0 + step_dma});
    } else if (step_seconds > busiest_c) {
      // Blocking pipeline: compute then DMA, back to back; the two spans
      // partition the step exactly (busiest_c <= busiest <= step).
      spans.push_back({0, prof::Phase::Dma, t0 + busiest_c, t0 + step_seconds});
    }
    result.seconds += step_seconds;
    result.compute_seconds += busiest_c;
    result.dma_seconds += step_dma;

    state.fill_halo(state.slot_for_time(t), bc);
    ++result.timesteps;
  }

  const double accessed = [&] {
    std::int64_t acc_pts = 0;
    for (const auto& term : st.terms()) acc_pts += term.kernel->stats().points_read;
    return static_cast<double>(acc_pts) * static_cast<double>(state.tensor()->interior_points()) *
           static_cast<double>(esz) * static_cast<double>(result.timesteps);
  }();
  result.reuse_factor = result.dma.bytes > 0 ? accessed / static_cast<double>(result.dma.bytes) : 0;
  // Cycle accounting at the CG clock: busiest-CPE compute/DMA time folded
  // back into cycles so the counter summary can be read against the paper's
  // per-kernel cycle breakdowns.
  prof::counter("sunway.sim.timesteps").add(result.timesteps);
  prof::counter("sunway.cycles.compute")
      .add(static_cast<std::int64_t>(result.compute_seconds * m.freq_ghz * 1e9));
  prof::counter("sunway.cycles.dma")
      .add(static_cast<std::int64_t>(result.dma_seconds * m.freq_ghz * 1e9));
  return result;
}

}  // namespace msc::sunway
