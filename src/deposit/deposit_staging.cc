#include "src/deposit/deposit_staging.h"

#include <cmath>

#include "src/particles/species.h"
#include "src/shape/shape_function.h"

namespace mpic {
namespace {

// Scalar ALU op estimate for one particle's staging at a given order: index
// math (3 axes), shape terms, gamma/velocity, and current factors.
template <int Order>
constexpr int ScalarStagingOps() {
  constexpr int kIndexOps = 9;                        // gx, floor, d per axis
  constexpr int kShapeOps = Order == 1 ? 3 : (Order == 2 ? 15 : 27);
  constexpr int kVelocityOps = 12;                    // u^2, gamma, 1/gamma, v
  constexpr int kCurrentOps = 6;                      // q*v*w*inv_vol
  return kIndexOps + kShapeOps + kVelocityOps + kCurrentOps;
}

// VPU instruction estimate for an 8-particle staging batch.
template <int Order>
constexpr int VpuStagingOps() {
  constexpr int kIndexOps = 12;  // fused gx/floor/d per axis
  constexpr int kShapeOps = Order == 1 ? 3 : (Order == 2 ? 12 : 21);
  constexpr int kVelocityOps = 9;  // 3 fma + sqrt (2) + recip (2) + 2 mul
  constexpr int kCurrentOps = 6;
  return kIndexOps + kShapeOps + kVelocityOps + kCurrentOps;
}

template <int Order>
void StageOneParticle(const ParticleSoA& soa, size_t i, const DepositParams& params,
                      DepositScratch& scratch) {
  constexpr int kSupport = Order + 1;
  const GridGeometry& g = params.geom;
  const double gx = (soa.x[i] - g.x0) / g.dx;
  const double gy = (soa.y[i] - g.y0) / g.dy;
  const double gz = (soa.z[i] - g.z0) / g.dz;

  int start_x, start_y, start_z;
  double wx[4], wy[4], wz[4];
  ShapeFunction<Order>::Weights(gx, &start_x, wx);
  ShapeFunction<Order>::Weights(gy, &start_y, wy);
  ShapeFunction<Order>::Weights(gz, &start_z, wz);

  scratch.ix[i] = static_cast<int32_t>(start_x);
  scratch.iy[i] = static_cast<int32_t>(start_y);
  scratch.iz[i] = static_cast<int32_t>(start_z);
  for (int t = 0; t < kSupport; ++t) {
    scratch.sx[t][i] = wx[t];
    scratch.sy[t][i] = wy[t];
    scratch.sz_[t][i] = wz[t];
  }

  const double ux = soa.ux[i];
  const double uy = soa.uy[i];
  const double uz = soa.uz[i];
  const double inv_c2 = 1.0 / (kSpeedOfLight * kSpeedOfLight);
  const double gamma = std::sqrt(1.0 + (ux * ux + uy * uy + uz * uz) * inv_c2);
  const double inv_gamma = 1.0 / gamma;
  const double qw = params.charge * soa.w[i] * params.InvCellVolume();
  scratch.wqx[i] = qw * ux * inv_gamma;
  scratch.wqy[i] = qw * uy * inv_gamma;
  scratch.wqz[i] = qw * uz * inv_gamma;
}

}  // namespace

template <int Order>
void StageTileScalar(HwContext& hw, const ParticleTile& tile,
                     const DepositParams& params, DepositScratch& scratch) {
  PhaseScope phase(hw.ledger(), Phase::kPreproc);
  constexpr int kSupport = Order + 1;
  const ParticleSoA& soa = tile.soa();
  scratch.Resize(soa.size(), Order);
  for (size_t i = 0; i < soa.size(); ++i) {
    if (!tile.IsLive(static_cast<int32_t>(i))) {
      hw.ScalarOps(1);  // validity test
      continue;
    }
    // Loads: x, y, z, ux, uy, uz, w.
    hw.TouchRead(&soa.x[i], sizeof(double));
    hw.TouchRead(&soa.y[i], sizeof(double));
    hw.TouchRead(&soa.z[i], sizeof(double));
    hw.TouchRead(&soa.ux[i], sizeof(double));
    hw.TouchRead(&soa.uy[i], sizeof(double));
    hw.TouchRead(&soa.uz[i], sizeof(double));
    hw.TouchRead(&soa.w[i], sizeof(double));
    hw.ScalarOps(ScalarStagingOps<Order>());
    StageOneParticle<Order>(soa, i, params, scratch);
    // Stores: 3 int indices, 3*kSupport shape terms, 3 current factors.
    hw.TouchWrite(&scratch.ix[i], sizeof(int32_t) * 3);
    for (int t = 0; t < kSupport; ++t) {
      hw.TouchWrite(&scratch.sx[t][i], sizeof(double));
      hw.TouchWrite(&scratch.sy[t][i], sizeof(double));
      hw.TouchWrite(&scratch.sz_[t][i], sizeof(double));
    }
    hw.TouchWrite(&scratch.wqx[i], sizeof(double));
    hw.TouchWrite(&scratch.wqy[i], sizeof(double));
    hw.TouchWrite(&scratch.wqz[i], sizeof(double));
  }
}

template <int Order>
void StageTileVpu(HwContext& hw, const ParticleTile& tile, const DepositParams& params,
                  DepositScratch& scratch) {
  PhaseScope phase(hw.ledger(), Phase::kPreproc);
  constexpr int kSupport = Order + 1;
  const ParticleSoA& soa = tile.soa();
  scratch.Resize(soa.size(), Order);
  const size_t n = soa.size();
  for (size_t base = 0; base < n; base += kVpuLanes) {
    const size_t batch = std::min(n - base, static_cast<size_t>(kVpuLanes));
    // Vector loads of the seven SoA streams (contiguous in slot order).
    for (const auto* stream : {&soa.x, &soa.y, &soa.z, &soa.ux, &soa.uy, &soa.uz,
                               &soa.w}) {
      hw.TouchRead(stream->data() + base, sizeof(double) * batch);
      hw.ledger().counters().vpu_mem += 1;
    }
    // Vectorized staging arithmetic for the batch (charged in one go; the real
    // per-lane arithmetic runs below).
    hw.VpuOps(VpuStagingOps<Order>());
    // Real arithmetic (values must be exact; compute per lane).
    for (size_t i = base; i < base + batch; ++i) {
      StageOneParticle<Order>(soa, i, params, scratch);
    }
    // Vector stores of the staged streams.
    hw.TouchWrite(&scratch.ix[base], sizeof(int32_t) * batch);
    hw.TouchWrite(&scratch.iy[base], sizeof(int32_t) * batch);
    hw.TouchWrite(&scratch.iz[base], sizeof(int32_t) * batch);
    for (int t = 0; t < kSupport; ++t) {
      hw.TouchWrite(&scratch.sx[t][base], sizeof(double) * batch);
      hw.TouchWrite(&scratch.sy[t][base], sizeof(double) * batch);
      hw.TouchWrite(&scratch.sz_[t][base], sizeof(double) * batch);
    }
    hw.TouchWrite(&scratch.wqx[base], sizeof(double) * batch);
    hw.TouchWrite(&scratch.wqy[base], sizeof(double) * batch);
    hw.TouchWrite(&scratch.wqz[base], sizeof(double) * batch);
    hw.ledger().counters().vpu_mem += static_cast<uint64_t>(6 + 3 * kSupport);
  }
}

void RegisterStagingRegions(HwContext& hw, uint64_t tile_key_base,
                            const ParticleTile& tile, const DepositScratch& scratch) {
  const ParticleSoA& soa = tile.soa();
  if (soa.size() == 0) {
    return;
  }
  uint64_t key = tile_key_base;
  auto reg = [&hw, &key](const auto& v) {
    const uint64_t k = key++;
    if (!v.empty()) {
      hw.RegisterRegionKeyed(k, v.data(), v.size() * sizeof(v[0]));
    }
  };
  reg(soa.x);
  reg(soa.y);
  reg(soa.z);
  reg(soa.ux);
  reg(soa.uy);
  reg(soa.uz);
  reg(soa.w);
  reg(soa.xo);
  reg(soa.yo);
  reg(soa.zo);
  reg(scratch.ix);
  reg(scratch.iy);
  reg(scratch.iz);
  for (int t = 0; t < 4; ++t) {
    reg(scratch.sx[t]);
    reg(scratch.sy[t]);
    reg(scratch.sz_[t]);
  }
  reg(scratch.wqx);
  reg(scratch.wqy);
  reg(scratch.wqz);
  reg(tile.gpma().local_index());
}

template void StageTileScalar<1>(HwContext&, const ParticleTile&, const DepositParams&,
                                 DepositScratch&);
template void StageTileScalar<2>(HwContext&, const ParticleTile&, const DepositParams&,
                                 DepositScratch&);
template void StageTileScalar<3>(HwContext&, const ParticleTile&, const DepositParams&,
                                 DepositScratch&);
template void StageTileVpu<1>(HwContext&, const ParticleTile&, const DepositParams&,
                              DepositScratch&);
template void StageTileVpu<2>(HwContext&, const ParticleTile&, const DepositParams&,
                              DepositScratch&);
template void StageTileVpu<3>(HwContext&, const ParticleTile&, const DepositParams&,
                              DepositScratch&);

}  // namespace mpic
