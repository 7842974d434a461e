#include "src/deposit/deposit_rhocell.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/deposit/particle_iteration.h"

namespace mpic {
namespace {

// Computes the full 3D weight array (Support3D entries, x fastest) for one
// staged particle. Pure arithmetic; the caller charges the modeled cost.
template <int Order>
void NodeWeights(const DepositScratch& scratch, size_t i, double* w3) {
  constexpr int kSupport = Order + 1;
  int k = 0;
  for (int c = 0; c < kSupport; ++c) {
    for (int b = 0; b < kSupport; ++b) {
      const double wyz = scratch.sy[b][i] * scratch.sz_[c][i];
      for (int a = 0; a < kSupport; ++a) {
        w3[k++] = scratch.sx[a][i] * wyz;
      }
    }
  }
}

// Accumulates w3 scaled by `factor` into one component block. Real arithmetic
// only; cost is charged by the caller at the chosen granularity.
template <int Order>
void AccumulateBlock(double* block, const double* w3, double factor) {
  constexpr int kNodes = Support3D(Order);
  for (int k = 0; k < kNodes; ++k) {
    block[k] += factor * w3[k];
  }
}

}  // namespace

template <int Order>
void DepositRhocellAutoVec(HwContext& hw, const ParticleTile& tile,
                           const DepositParams& params, const DepositScratch& scratch,
                           RhocellBuffer& rhocell, bool sorted) {
  static_assert(Order == 1 || Order == 3, "rhocell requires odd order");
  (void)params;
  PhaseScope phase(hw.ledger(), Phase::kCompute);
  constexpr int kSupport = Order + 1;
  constexpr int kNodes = Support3D(Order);
  constexpr int kRows = kNodes / kVpuLanes == 0 ? 1 : kNodes / kVpuLanes;

  ForEachParticle(hw, tile, sorted, [&](int32_t pid) {
    const auto i = static_cast<size_t>(pid);
    // Scalar staged loads (the compiler does not batch these across particles).
    hw.TouchRead(&scratch.ix[i], sizeof(int32_t) * 3);
    for (int t = 0; t < kSupport; ++t) {
      hw.TouchRead(&scratch.sx[t][i], sizeof(double));
      hw.TouchRead(&scratch.sy[t][i], sizeof(double));
      hw.TouchRead(&scratch.sz_[t][i], sizeof(double));
    }
    hw.TouchRead(&scratch.wqx[i], sizeof(double));
    hw.TouchRead(&scratch.wqy[i], sizeof(double));
    hw.TouchRead(&scratch.wqz[i], sizeof(double));

    double w3[Support3D(Order)];
    NodeWeights<Order>(scratch, i, w3);
    // The weight products go through a stack temporary (auto-vec emits the
    // store-reload): yz products scalar, xyz products vectorized.
    hw.ScalarOps(kSupport * kSupport + 3);
    hw.VpuOps(kRows);
    hw.TouchWrite(w3, sizeof(double) * kNodes);

    const int cell = StagedCellOf<Order>(tile, scratch, i);
    hw.ScalarOps(4);  // cell id + block address arithmetic

    const double factors[3] = {scratch.wqx[i], scratch.wqy[i], scratch.wqz[i]};
    double* blocks[3] = {rhocell.CellJx(cell), rhocell.CellJy(cell),
                         rhocell.CellJz(cell)};
    for (int comp = 0; comp < 3; ++comp) {
      AccumulateBlock<Order>(blocks[comp], w3, factors[comp]);
      // Vectorized block update: load + fma + store per row of the block.
      for (int r = 0; r < kRows; ++r) {
        hw.TouchRead(blocks[comp] + r * kVpuLanes,
                     sizeof(double) * std::min(kNodes, kVpuLanes));
        hw.TouchWrite(blocks[comp] + r * kVpuLanes,
                      sizeof(double) * std::min(kNodes, kVpuLanes));
      }
      hw.VpuOps(2 * kRows);
    }
  });
}

template <int Order>
void DepositRhocellVpu(HwContext& hw, const ParticleTile& tile,
                       const DepositParams& params, const DepositScratch& scratch,
                       RhocellBuffer& rhocell, bool sorted) {
  static_assert(Order == 1 || Order == 3, "rhocell requires odd order");
  (void)params;
  PhaseScope phase(hw.ledger(), Phase::kCompute);
  constexpr int kSupport = Order + 1;
  constexpr int kNodes = Support3D(Order);
  constexpr int kRows = kNodes / kVpuLanes == 0 ? 1 : kNodes / kVpuLanes;

  int64_t batch_pids[kVpuLanes];
  int batch_fill = 0;
  auto flush_batch = [&]() {
    if (batch_fill == 0) {
      return;
    }
    // Batched gathers of the staged streams (cheap when pids are contiguous
    // after a global sort; scattered after incremental churn).
    const Mask8 m = Mask8::FirstN(batch_fill);
    for (int t = 0; t < kSupport; ++t) {
      hw.VGatherAuto(scratch.sx[t].data(), batch_pids, m);
      hw.VGatherAuto(scratch.sy[t].data(), batch_pids, m);
      hw.VGatherAuto(scratch.sz_[t].data(), batch_pids, m);
    }
    hw.VGatherAuto(scratch.wqx.data(), batch_pids, m);
    hw.VGatherAuto(scratch.wqy.data(), batch_pids, m);
    hw.VGatherAuto(scratch.wqz.data(), batch_pids, m);

    for (int bi = 0; bi < batch_fill; ++bi) {
      const auto i = static_cast<size_t>(batch_pids[bi]);
      double w3[Support3D(Order)];
      NodeWeights<Order>(scratch, i, w3);
      // Register-resident weight construction: permutes + multiplies.
      const int build_ops = Order == 1 ? 7 : 24;
      hw.VpuOps(build_ops);

      const int cell = StagedCellOf<Order>(tile, scratch, i);
      hw.ScalarOps(4);
      const double factors[3] = {scratch.wqx[i], scratch.wqy[i], scratch.wqz[i]};
      double* blocks[3] = {rhocell.CellJx(cell), rhocell.CellJy(cell),
                           rhocell.CellJz(cell)};
      for (int comp = 0; comp < 3; ++comp) {
        AccumulateBlock<Order>(blocks[comp], w3, factors[comp]);
        for (int r = 0; r < kRows; ++r) {
          hw.TouchRead(blocks[comp] + r * kVpuLanes,
                       sizeof(double) * std::min(kNodes, kVpuLanes));
          hw.TouchWrite(blocks[comp] + r * kVpuLanes,
                        sizeof(double) * std::min(kNodes, kVpuLanes));
        }
        hw.VpuOps(2 * kRows);
      }
    }
    batch_fill = 0;
  };

  ForEachParticle(hw, tile, sorted, [&](int32_t pid) {
    batch_pids[batch_fill++] = pid;
    if (batch_fill == kVpuLanes) {
      flush_batch();
    }
  });
  flush_batch();
}

template <int Order>
void ReduceRhocellToGrid(HwContext& hw, const ParticleTile& tile,
                         RhocellBuffer& rhocell, FieldSet& fields) {
  static_assert(Order == 1 || Order == 3, "rhocell requires odd order");
  PhaseScope phase(hw.ledger(), Phase::kReduce);
  constexpr int kSupport = Order + 1;
  constexpr int kNodes = Support3D(Order);
  constexpr int kOff = Order == 3 ? 1 : 0;

  FieldArray* comps[3] = {&fields.jx, &fields.jy, &fields.jz};
  double* blocks[3];
  int64_t node_idx[Support3D(Order)];

  for (int cell = 0; cell < rhocell.num_cells(); ++cell) {
    blocks[0] = rhocell.CellJx(cell);
    blocks[1] = rhocell.CellJy(cell);
    blocks[2] = rhocell.CellJz(cell);
    int gx, gy, gz;
    tile.LocalCellToGlobal(cell, &gx, &gy, &gz);
    const int sx0 = gx - kOff;
    const int sy0 = gy - kOff;
    const int sz0 = gz - kOff;
    int k = 0;
    for (int c = 0; c < kSupport; ++c) {
      for (int b = 0; b < kSupport; ++b) {
        for (int a = 0; a < kSupport; ++a) {
          node_idx[k++] = fields.jx.Index(sx0 + a, sy0 + b, sz0 + c);
        }
      }
    }
    hw.ScalarOps(8);  // node index arithmetic (strength-reduced)

    for (int comp = 0; comp < 3; ++comp) {
      double* grid = comps[comp]->data();
      for (int base = 0; base < kNodes; base += kVpuLanes) {
        const int n = std::min(kVpuLanes, kNodes - base);
        const Mask8 m = Mask8::FirstN(n);
        // Load the block row, scatter-accumulate onto the grid (lanes hit
        // distinct nodes by construction: no conflict handling needed).
        Vec8 v = hw.VLoad(blocks[comp] + base);
        hw.VScatterAccum(grid, node_idx + base, v, m);
        // Zero the block row for the next deposition pass.
        hw.VStore(blocks[comp] + base, Vec8::Zero());
      }
    }
  }
}

template void DepositRhocellAutoVec<1>(HwContext&, const ParticleTile&,
                                       const DepositParams&, const DepositScratch&,
                                       RhocellBuffer&, bool);
template void DepositRhocellAutoVec<3>(HwContext&, const ParticleTile&,
                                       const DepositParams&, const DepositScratch&,
                                       RhocellBuffer&, bool);
template void DepositRhocellVpu<1>(HwContext&, const ParticleTile&,
                                   const DepositParams&, const DepositScratch&,
                                   RhocellBuffer&, bool);
template void DepositRhocellVpu<3>(HwContext&, const ParticleTile&,
                                   const DepositParams&, const DepositScratch&,
                                   RhocellBuffer&, bool);
template void ReduceRhocellToGrid<1>(HwContext&, const ParticleTile&, RhocellBuffer&,
                                     FieldSet&);
template void ReduceRhocellToGrid<3>(HwContext&, const ParticleTile&, RhocellBuffer&,
                                     FieldSet&);

}  // namespace mpic
