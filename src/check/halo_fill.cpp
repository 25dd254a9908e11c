#include "check/halo_fill.hpp"

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "comm/exchange_plan.hpp"
#include "comm/simmpi.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace msc::check {

std::string halo_fill_mismatch(const exec::GridStorage<double>& global,
                               const comm::CartDecomp& dec) {
  const int nd = global.ndim();
  MSC_CHECK(dec.ndim() == nd) << "decomposition is " << dec.ndim() << "-D, grid " << nd << "-D";
  for (int d = 1; d < nd; ++d)
    MSC_CHECK(dec.periodic(d) == dec.periodic(0)) << "fill_halo wraps every dim or none";
  exec::GridStorage<double> want = global;
  for (int s = 0; s < want.slots(); ++s)
    want.fill_halo(s, dec.periodic(0) ? exec::Boundary::Periodic : exec::Boundary::ZeroHalo);

  const std::int64_t h = global.halo();
  std::vector<std::string> mismatch(static_cast<std::size_t>(dec.size()));
  comm::SimWorld world(dec.size());
  world.run([&](comm::RankCtx& ctx) {
    const int r = ctx.rank();
    std::vector<std::int64_t> local_ext;
    std::array<std::int64_t, 3> off{0, 0, 0};
    for (int d = 0; d < nd; ++d) {
      local_ext.push_back(dec.local_extent(r, d));
      off[static_cast<std::size_t>(d)] = dec.local_offset(r, d);
    }
    exec::GridStorage<double> local(ir::make_sp_tensor(
        global.tensor()->name(), ir::DataType::f64, local_ext, h, global.tensor()->time_window()));
    const auto at_offset = [&](std::array<std::int64_t, 3> c) {
      for (int d = 0; d < nd; ++d)
        c[static_cast<std::size_t>(d)] += off[static_cast<std::size_t>(d)];
      return c;
    };
    const comm::ExchangePlan plan(dec, r, h);
    comm::PlanWorkspace<double> ws;
    for (int s = 0; s < local.slots(); ++s) {
      local.for_each_interior(
          [&](std::array<std::int64_t, 3> c) { local.at(s, c) = want.at(s, at_offset(c)); });
      local.fill_halo(s, exec::Boundary::ZeroHalo);
      comm::exchange_halo_plan(ctx, plan, ws, local, s);
    }

    // Every padded point, halos and corners included.
    std::array<std::int64_t, 3> lo{0, 0, 0}, hi{1, 1, 1};
    for (int d = 0; d < nd; ++d) {
      lo[static_cast<std::size_t>(d)] = -h;
      hi[static_cast<std::size_t>(d)] = local.extent(d) + h;
    }
    std::string& out = mismatch[static_cast<std::size_t>(r)];
    std::array<std::int64_t, 3> c{};
    for (int s = 0; s < local.slots(); ++s)
      for (c[0] = lo[0]; c[0] < hi[0]; ++c[0])
        for (c[1] = lo[1]; c[1] < hi[1]; ++c[1])
          for (c[2] = lo[2]; c[2] < hi[2]; ++c[2]) {
            const double got = local.at(s, c);
            const double exp = want.at(s, at_offset(c));
            if (std::memcmp(&got, &exp, sizeof got) == 0) continue;
            out = strprintf("rank %d slot %d at (%lld,%lld,%lld): got %.17g, want %.17g", r, s,
                            static_cast<long long>(c[0]), static_cast<long long>(c[1]),
                            static_cast<long long>(c[2]), got, exp);
            return;
          }
  });
  for (const auto& m : mismatch)
    if (!m.empty()) return m;
  return "";
}

}  // namespace msc::check
