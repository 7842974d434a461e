#include "src/deposit/esirkepov_mpu.h"

#include <algorithm>
#include <cstdint>

#include "src/deposit/particle_iteration.h"

namespace mpic {
namespace {

// Row / column axis of each plane tile (0=x, 1=y, 2=z); see esirkepov_mpu.h.
constexpr int kPlaneRowAxis[3] = {1, 2, 1};
constexpr int kPlaneColAxis[3] = {2, 0, 0};

// Decoded per-particle view of one staged window block. The m windows are
// materialized by value: the scratch stores only kW - 1 m lanes per axis and
// MakeView reconstructs the last one from d and the direction bit (see
// EsirkepovWideLastM), so downstream packing/extraction sees full windows.
template <int Order>
struct WindowView {
  static constexpr int kW = Order + 2;
  double m[3][Order + 2];
  const double* d[3];
  int base[3];
  int width[3];  // effective per-axis window width: Order+1 narrow, Order+2 wide
  double cf[3];  // qf * d{x,y,z} / dt
  int slot_width;  // max axis width = lane pitch this particle needs in a tile
};

template <int Order>
WindowView<Order> MakeView(HwContext& hw, const EsirkepovScratch& scratch,
                           const double f[3], size_t i) {
  constexpr int kW = Order + 2;
  WindowView<Order> v;
  const double* w = scratch.Win(i);
  const uint8_t wide = scratch.wide[i];
  for (int axis = 0; axis < 3; ++axis) {
    const double* stored_m = w + scratch.OffM(axis);
    v.d[axis] = w + scratch.OffD(axis);
    for (int t = 0; t < kW - 1; ++t) {
      v.m[axis][t] = stored_m[t];
    }
    v.m[axis][kW - 1] = EsirkepovWideLastM(wide, axis, v.d[axis][kW - 1]);
  }
  v.base[0] = scratch.bx[i];
  v.base[1] = scratch.by[i];
  v.base[2] = scratch.bz[i];
  for (int axis = 0; axis < 3; ++axis) {
    v.width[axis] = ((wide >> axis) & 1) != 0 ? kW : kW - 1;
  }
  const double qf = scratch.qf[i];
  v.cf[0] = qf * f[0];
  v.cf[1] = qf * f[1];
  v.cf[2] = qf * f[2];
  v.slot_width = wide == 0 ? kW - 1 : kW;
  // cf scales + the three m-lane reconstructions; the width decode rides the
  // same issue slots.
  hw.ScalarOps(6);
  return v;
}

// Issues the three plane tiles of one MOPA group of `g` particles packed at
// lane offsets {0, pitch, 2*pitch, ...}: per plane a zeroing m (x) m followed
// by an accumulating d (x) (k12*d), so each tile ends as
// T = fma(d_r, k12*d_c, m_r*m_c). Off-diagonal cross-particle blocks hold
// garbage and are never read.
template <int Order>
void EsirkMopaGroup(HwContext& hw, const WindowView<Order>* views, int g,
                    int pitch, MpuTileReg tiles[3]) {
  constexpr double k12 = 1.0 / 12.0;
  // Operand assembly: six lane blends per extra group member (the six operand
  // registers merge g window loads each) plus two k12 pre-scales shared by
  // the three planes' difference columns.
  hw.VpuOps(6 * (g > 1 ? g - 1 : 1) + 2);
  for (int plane = 0; plane < 3; ++plane) {
    const int ra = kPlaneRowAxis[plane];
    const int ca = kPlaneColAxis[plane];
    Vec8 mr = Vec8::Zero();
    Vec8 dr = Vec8::Zero();
    Vec8 mc = Vec8::Zero();
    Vec8 dc = Vec8::Zero();
    int valid = 0;
    for (int k = 0; k < g; ++k) {
      const WindowView<Order>& p = views[k];
      const int off = k * pitch;
      for (int t = 0; t < p.width[ra]; ++t) {
        mr[off + t] = p.m[ra][t];
        dr[off + t] = p.d[ra][t];
      }
      for (int t = 0; t < p.width[ca]; ++t) {
        mc[off + t] = p.m[ca][t];
        dc[off + t] = k12 * p.d[ca][t];
      }
      valid += p.width[ra] * p.width[ca];
    }
    hw.MopaZero(tiles[plane], mr, mc, valid);
    hw.Mopa(tiles[plane], dr, dc, valid);
  }
}

// Reads one particle's plane blocks back (lane offset `off` inside the pair
// tiles) and applies the longitudinal cumulative sums as x-contiguous
// read-modify-writes on the tile scratch. Each run is one by-element FMA
// (vector * tile-row lane, an SVE/NEON-class instruction), with the charge
// factor folded into the prefix vector once per axis.
template <int Order>
void ExtractParticle(HwContext& hw, const WindowView<Order>& v, int off,
                     const MpuTileReg tiles[3], TileCurrent& tile_j) {
  constexpr int kW = Order + 2;
  // cf-scaled prefix vectors u[axis][t] = -cf[axis] * sum_{s<=t} d[axis][s].
  // All Order+1 longitudinal lanes stay live: the prefix at the last support
  // lane is tiny but nonzero in floating point, and the scalar reference
  // keeps it.
  double u[3][kW - 1];
  for (int axis = 0; axis < 3; ++axis) {
    double acc = 0.0;
    for (int t = 0; t < kW - 1; ++t) {
      acc -= v.d[axis][t];
      u[axis][t] = v.cf[axis] * acc;
    }
  }
  // Per axis: log2(run lanes) shifted-add cumsum steps + the cf fold.
  hw.VpuOps(Order == 1 ? 6 : 9);

  double* jx = tile_j.jx().data();
  double* jy = tile_j.jy().data();
  double* jz = tile_j.jz().data();
  const int wx = v.width[0];
  const int wy = v.width[1];
  const int wz = v.width[2];

  // Jx: runs along x of width Order+1, one per live (b, c) of T_yz.
  for (int b = 0; b < wy; ++b) {
    const Vec8 row = hw.TileReadRow(tiles[0], off + b);
    for (int c = 0; c < wz; ++c) {
      const double t = row[off + c];
      const int64_t node = tile_j.Index(v.base[0], v.base[1] + b, v.base[2] + c);
      hw.TouchRead(&jx[node], sizeof(double) * (kW - 1));
      hw.VpuOps(1);  // by-element FMA: jx_vec += u_x * T[b][c]
      for (int a = 0; a < kW - 1; ++a) {
        jx[node + a] += u[0][a] * t;
      }
      hw.TouchWrite(&jx[node], sizeof(double) * (kW - 1));
    }
  }
  // Jy: tile 1 rows are z, lanes are x; runs of width wx per live (b, c).
  {
    Vec8 rows[kW];
    for (int c = 0; c < wz; ++c) {
      rows[c] = hw.TileReadRow(tiles[1], off + c);
    }
    for (int b = 0; b < kW - 1; ++b) {
      for (int c = 0; c < wz; ++c) {
        const int64_t node =
            tile_j.Index(v.base[0], v.base[1] + b, v.base[2] + c);
        hw.TouchRead(&jy[node], sizeof(double) * static_cast<size_t>(wx));
        hw.VpuOps(1);  // by-element FMA: jy_vec += T_row * u_y[b]
        for (int a = 0; a < wx; ++a) {
          jy[node + a] += u[1][b] * rows[c][off + a];
        }
        hw.TouchWrite(&jy[node], sizeof(double) * static_cast<size_t>(wx));
      }
    }
  }
  // Jz: tile 2 rows are y, lanes are x; runs of width wx per live (b, c).
  {
    Vec8 rows[kW];
    for (int b = 0; b < wy; ++b) {
      rows[b] = hw.TileReadRow(tiles[2], off + b);
    }
    for (int c = 0; c < kW - 1; ++c) {
      for (int b = 0; b < wy; ++b) {
        const int64_t node =
            tile_j.Index(v.base[0], v.base[1] + b, v.base[2] + c);
        hw.TouchRead(&jz[node], sizeof(double) * static_cast<size_t>(wx));
        hw.VpuOps(1);  // by-element FMA: jz_vec += T_row * u_z[c]
        for (int a = 0; a < wx; ++a) {
          jz[node + a] += u[2][c] * rows[b][off + a];
        }
        hw.TouchWrite(&jz[node], sizeof(double) * static_cast<size_t>(wx));
      }
    }
  }
}

// Register-resident J accumulator for the all-narrow particles of one batch
// that share a window base (in cell-resident bins at thermal drifts that is
// nearly every particle: same cell, no boundary crossing, so identical
// (bx, by, bz)). Each component block is (Order+1)^3 doubles — 1 Vec8 at
// order 1, ~3.4 at order 2, ~10 in total with all three components — small
// enough to live entirely in the vector register file alongside the tile
// operands, so per-particle runs become register FMAs and the tile-scratch
// read-modify-writes are issued once per batch at flush. Order 3's blocks
// (24 Vec8) would spill, so it keeps the per-particle extraction.
template <int Order>
struct NarrowAccum {
  static constexpr int kN = Order + 1;
  double jx[kN * kN * kN];
  double jy[kN * kN * kN];
  double jz[kN * kN * kN];
  int base[3];
  bool active = false;
};

template <int Order>
void ExtractParticleToAccum(HwContext& hw, const WindowView<Order>& v, int off,
                            const MpuTileReg tiles[3], NarrowAccum<Order>& acc) {
  constexpr int kW = Order + 2;
  constexpr int kN = Order + 1;
  double u[3][kW - 1];
  for (int axis = 0; axis < 3; ++axis) {
    double s = 0.0;
    for (int t = 0; t < kW - 1; ++t) {
      s -= v.d[axis][t];
      u[axis][t] = v.cf[axis] * s;
    }
  }
  hw.VpuOps(Order == 1 ? 6 : 9);

  // Same run structure as ExtractParticle, but every run lands in the
  // register block: one by-element FMA per run, no memory traffic.
  for (int b = 0; b < kN; ++b) {
    const Vec8 row = hw.TileReadRow(tiles[0], off + b);
    for (int c = 0; c < kN; ++c) {
      const double t = row[off + c];
      hw.VpuOps(1);
      for (int a = 0; a < kN; ++a) {
        acc.jx[(b * kN + c) * kN + a] += u[0][a] * t;
      }
    }
  }
  {
    Vec8 rows[kN];
    for (int c = 0; c < kN; ++c) {
      rows[c] = hw.TileReadRow(tiles[1], off + c);
    }
    for (int b = 0; b < kN; ++b) {
      for (int c = 0; c < kN; ++c) {
        hw.VpuOps(1);
        for (int a = 0; a < kN; ++a) {
          acc.jy[(b * kN + c) * kN + a] += u[1][b] * rows[c][off + a];
        }
      }
    }
  }
  {
    Vec8 rows[kN];
    for (int b = 0; b < kN; ++b) {
      rows[b] = hw.TileReadRow(tiles[2], off + b);
    }
    for (int c = 0; c < kN; ++c) {
      for (int b = 0; b < kN; ++b) {
        hw.VpuOps(1);
        for (int a = 0; a < kN; ++a) {
          acc.jz[(b * kN + c) * kN + a] += u[2][c] * rows[b][off + a];
        }
      }
    }
  }
}

template <int Order>
void FlushAccum(HwContext& hw, const NarrowAccum<Order>& acc,
                TileCurrent& tile_j) {
  constexpr int kN = Order + 1;
  double* j[3] = {tile_j.jx().data(), tile_j.jy().data(), tile_j.jz().data()};
  for (int comp = 0; comp < 3; ++comp) {
    const double* blk =
        comp == 0 ? acc.jx : (comp == 1 ? acc.jy : acc.jz);
    for (int b = 0; b < kN; ++b) {
      for (int c = 0; c < kN; ++c) {
        const int64_t node =
            tile_j.Index(acc.base[0], acc.base[1] + b, acc.base[2] + c);
        hw.TouchRead(&j[comp][node], sizeof(double) * kN);
        hw.VpuOps(1);  // vector add of the register block's run
        for (int a = 0; a < kN; ++a) {
          j[comp][node + a] += blk[(b * kN + c) * kN + a];
        }
        hw.TouchWrite(&j[comp][node], sizeof(double) * kN);
      }
    }
  }
}

// One batch of up to kVpuLanes staged particles: batched loads, then greedy
// width-adaptive packing (deterministic — depends only on staged widths in
// pid order). A group of g particles shares each plane tile at lane pitch S,
// S the widest member's slot width: all-narrow order-1 groups pack FOUR
// particles per tile (pitch 2), orders 2-3 pack pairs, boundary-crossing
// order-3 particles go single.
template <int Order>
void ProcessBatch(HwContext& hw, const EsirkepovScratch& scratch,
                  const double f[3], const int32_t* pids, int count,
                  TileCurrent& tile_j) {
  // Side streams once per batch over the pid span (pids come in ascending
  // runs from the bins / slot walk); window blocks as unaligned vector loads,
  // one contiguous stream when the batch's slots are consecutive.
  int32_t lo = pids[0];
  int32_t hi = pids[0];
  for (int s = 1; s < count; ++s) {
    lo = std::min(lo, pids[s]);
    hi = std::max(hi, pids[s]);
  }
  const auto first = static_cast<size_t>(lo);
  const auto span = static_cast<size_t>(hi - lo) + 1;
  hw.TouchRead(&scratch.bx[first], sizeof(int32_t) * span);
  hw.TouchRead(&scratch.by[first], sizeof(int32_t) * span);
  hw.TouchRead(&scratch.bz[first], sizeof(int32_t) * span);
  hw.TouchRead(&scratch.qf[first], sizeof(double) * span);
  hw.TouchRead(&scratch.wide[first], sizeof(uint8_t) * span);

  const size_t stride = static_cast<size_t>(scratch.stride());
  const size_t loads =
      span == static_cast<size_t>(count)
          ? (static_cast<size_t>(count) * stride + kVpuLanes - 1) / kVpuLanes
          : static_cast<size_t>(count) * ((stride + kVpuLanes - 1) / kVpuLanes);
  hw.ledger().counters().vpu_mem += static_cast<uint64_t>(loads);
  hw.ChargeCycles(static_cast<double>(loads) * hw.cfg().vector_mem_issue_cycles);

  WindowView<Order> views[kVpuLanes];
  for (int s = 0; s < count; ++s) {
    const auto i = static_cast<size_t>(pids[s]);
    hw.TouchRead(scratch.Win(i), sizeof(double) * stride);
    views[s] = MakeView<Order>(hw, scratch, f, i);
  }

  // Orders 1-2: all-narrow particles sharing the batch's reference base
  // accumulate into the register block and flush once (NarrowAccum above).
  constexpr int kW = Order + 2;
  constexpr bool kUseAccum = Order <= 2;
  NarrowAccum<Order> accum;

  int s = 0;
  while (s < count) {
    // Greedy group: extend while one more member still fits at the widened
    // lane pitch.
    int g = 1;
    int pitch = views[s].slot_width;
    while (s + g < count) {
      const int widened = std::max(pitch, views[s + g].slot_width);
      if ((g + 1) * widened > kVpuLanes) {
        break;
      }
      pitch = widened;
      ++g;
    }
    MpuTileReg tiles[3];
    EsirkMopaGroup<Order>(hw, &views[s], g, pitch, tiles);
    for (int k = 0; k < g; ++k) {
      const WindowView<Order>& v = views[s + k];
      if (kUseAccum && v.slot_width == kW - 1) {
        if (!accum.active) {
          accum.active = true;
          accum.base[0] = v.base[0];
          accum.base[1] = v.base[1];
          accum.base[2] = v.base[2];
          std::fill(std::begin(accum.jx), std::end(accum.jx), 0.0);
          std::fill(std::begin(accum.jy), std::end(accum.jy), 0.0);
          std::fill(std::begin(accum.jz), std::end(accum.jz), 0.0);
          // Zeroing the register block: one vector zero per Vec8 of footprint.
          constexpr int kN = Order + 1;
          hw.VpuOps(3 * ((kN * kN * kN + kVpuLanes - 1) / kVpuLanes));
        }
        if (accum.base[0] == v.base[0] && accum.base[1] == v.base[1] &&
            accum.base[2] == v.base[2]) {
          ExtractParticleToAccum<Order>(hw, v, k * pitch, tiles, accum);
          continue;
        }
      }
      ExtractParticle<Order>(hw, v, k * pitch, tiles, tile_j);
    }
    s += g;
  }
  if (kUseAccum && accum.active) {
    FlushAccum<Order>(hw, accum, tile_j);
  }
}

}  // namespace

template <int Order>
void DepositEsirkepovMpuTile(HwContext& hw, const ParticleTile& tile,
                             const DepositParams& params,
                             MpuScheduling scheduling,
                             const EsirkepovScratch& scratch,
                             TileCurrent& tile_j) {
  PhaseScope phase(hw.ledger(), Phase::kCompute);
  MPIC_CHECK_MSG(params.dt > 0.0, "Esirkepov deposition needs the step dt");
  const GridGeometry& g = params.geom;
  const double f[3] = {g.dx / params.dt, g.dy / params.dt, g.dz / params.dt};

  if (scheduling == MpuScheduling::kCellResident) {
    ForEachCellBin(hw, tile, [&](int cell, const int32_t* pids, int32_t len) {
      (void)cell;
      for (int32_t s = 0; s < len; s += kVpuLanes) {
        const int count =
            static_cast<int>(std::min<int32_t>(kVpuLanes, len - s));
        ProcessBatch<Order>(hw, scratch, f, pids + s, count, tile_j);
      }
    });
    return;
  }

  // Pairwise: slot-order traversal, batches of up to kVpuLanes live slots.
  int32_t buf[kVpuLanes];
  int nbuf = 0;
  ForEachParticle(hw, tile, /*sorted=*/false, [&](int32_t pid) {
    buf[nbuf++] = pid;
    if (nbuf == kVpuLanes) {
      ProcessBatch<Order>(hw, scratch, f, buf, nbuf, tile_j);
      nbuf = 0;
    }
  });
  if (nbuf > 0) {
    ProcessBatch<Order>(hw, scratch, f, buf, nbuf, tile_j);
  }
}

template void DepositEsirkepovMpuTile<1>(HwContext&, const ParticleTile&,
                                         const DepositParams&, MpuScheduling,
                                         const EsirkepovScratch&, TileCurrent&);
template void DepositEsirkepovMpuTile<2>(HwContext&, const ParticleTile&,
                                         const DepositParams&, MpuScheduling,
                                         const EsirkepovScratch&, TileCurrent&);
template void DepositEsirkepovMpuTile<3>(HwContext&, const ParticleTile&,
                                         const DepositParams&, MpuScheduling,
                                         const EsirkepovScratch&, TileCurrent&);

}  // namespace mpic
