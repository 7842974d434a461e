#include "src/push/boris_pusher.h"

#include <cmath>

#include "src/particles/species.h"

namespace mpic {

void BorisStep(double ex, double ey, double ez, double bx, double by, double bz,
               double qdt_over_2m, double* ux, double* uy, double* uz) {
  const double inv_c2 = 1.0 / (kSpeedOfLight * kSpeedOfLight);
  // Half electric kick.
  double umx = *ux + qdt_over_2m * ex;
  double umy = *uy + qdt_over_2m * ey;
  double umz = *uz + qdt_over_2m * ez;
  // Magnetic rotation at the mid-step gamma.
  const double gamma_m =
      std::sqrt(1.0 + (umx * umx + umy * umy + umz * umz) * inv_c2);
  const double tx = qdt_over_2m * bx / gamma_m;
  const double ty = qdt_over_2m * by / gamma_m;
  const double tz = qdt_over_2m * bz / gamma_m;
  const double t2 = tx * tx + ty * ty + tz * tz;
  const double sx = 2.0 * tx / (1.0 + t2);
  const double sy = 2.0 * ty / (1.0 + t2);
  const double sz = 2.0 * tz / (1.0 + t2);
  const double upx = umx + (umy * tz - umz * ty);
  const double upy = umy + (umz * tx - umx * tz);
  const double upz = umz + (umx * ty - umy * tx);
  umx += upy * sz - upz * sy;
  umy += upz * sx - upx * sz;
  umz += upx * sy - upy * sx;
  // Half electric kick.
  *ux = umx + qdt_over_2m * ex;
  *uy = umy + qdt_over_2m * ey;
  *uz = umz + qdt_over_2m * ez;
}

void PushTileBoris(HwContext& hw, ParticleTile& tile, const GatherScratch& gathered,
                   const PushParams& params) {
  PhaseScope phase(hw.ledger(), Phase::kPush);
  ParticleSoA& soa = tile.soa();
  const double qdt_over_2m = params.charge * params.dt / (2.0 * params.mass);
  const double inv_c2 = 1.0 / (kSpeedOfLight * kSpeedOfLight);
  const size_t n = soa.size();

  // Vectorized: per batch of 8 slots, load 6 gathered fields + 6 particle
  // streams, ~45 VPU ops of Boris arithmetic, store back 6 streams.
  for (size_t base = 0; base < n; base += kVpuLanes) {
    const size_t batch = std::min(n - base, static_cast<size_t>(kVpuLanes));
    for (const auto* stream :
         {&gathered.ex, &gathered.ey, &gathered.ez, &gathered.bx, &gathered.by,
          &gathered.bz}) {
      hw.TouchRead(stream->data() + base, sizeof(double) * batch);
    }
    for (const auto* stream : {&soa.x, &soa.y, &soa.z, &soa.ux, &soa.uy, &soa.uz}) {
      hw.TouchRead(stream->data() + base, sizeof(double) * batch);
    }
    hw.VpuOps(45);

    for (size_t i = base; i < base + batch; ++i) {
      if (!tile.IsLive(static_cast<int32_t>(i))) {
        continue;
      }
      BorisStep(gathered.ex[i], gathered.ey[i], gathered.ez[i], gathered.bx[i],
                gathered.by[i], gathered.bz[i], qdt_over_2m, &soa.ux[i], &soa.uy[i],
                &soa.uz[i]);
      const double gamma =
          std::sqrt(1.0 + (soa.ux[i] * soa.ux[i] + soa.uy[i] * soa.uy[i] +
                           soa.uz[i] * soa.uz[i]) *
                              inv_c2);
      const double scale = params.dt / gamma;
      soa.x[i] += soa.ux[i] * scale;
      soa.y[i] += soa.uy[i] * scale;
      soa.z[i] += soa.uz[i] * scale;
    }

    for (auto* stream : {&soa.x, &soa.y, &soa.z, &soa.ux, &soa.uy, &soa.uz}) {
      hw.TouchWrite(stream->data() + base, sizeof(double) * batch);
    }
  }
}

}  // namespace mpic
