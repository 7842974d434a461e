#include "src/push/field_gather.h"

#include <algorithm>
#include <bitset>
#include <cmath>

#include "src/common/check.h"
#include "src/deposit/particle_iteration.h"
#include "src/shape/shape_function.h"

namespace mpic {
namespace {

// Per-axis shape evaluation with optional half-cell stagger shift.
template <int Order>
struct AxisShape {
  int start;
  double w[4];
  void Eval(double grid_coord, bool staggered) {
    ShapeFunction<Order>::Weights(staggered ? grid_coord - 0.5 : grid_coord, &start,
                                  w);
  }
};

// Operations to evaluate one axis shape (floor, offset, weight polynomial):
// scalar ops on the reference path, VPU instructions per 8-lane batch on the
// cell path.
template <int Order>
constexpr int ShapeOps() {
  return Order == 1 ? 4 : (Order == 2 ? 8 : 12);
}

// The six axis shapes of one particle — node-aligned (n*) and half-cell
// staggered (h*) — plus the y/z cell indices the cell path batches by.
template <int Order>
struct ParticleShapes {
  AxisShape<Order> nx, ny, nz;
  AxisShape<Order> hx, hy, hz;
  int cy, cz;
  void Eval(const GridGeometry& g, double x, double y, double z) {
    const double gx = g.GridX(x);
    const double gy = g.GridY(y);
    const double gz = g.GridZ(z);
    nx.Eval(gx, false);
    ny.Eval(gy, false);
    nz.Eval(gz, false);
    hx.Eval(gx, true);
    hy.Eval(gy, true);
    hz.Eval(gz, true);
    cy = static_cast<int>(std::floor(gy));
    cz = static_cast<int>(std::floor(gz));
  }
};

// Interpolates one staggered component for one particle; charges line-granular
// reads per (b, c) row of the support region.
template <int Order>
double GatherComponent(HwContext& hw, const FieldArray& f, const AxisShape<Order>& sx,
                       const AxisShape<Order>& sy, const AxisShape<Order>& sz) {
  constexpr int kSupport = Order + 1;
  double acc = 0.0;
  for (int c = 0; c < kSupport; ++c) {
    for (int b = 0; b < kSupport; ++b) {
      const double wyz = sy.w[b] * sz.w[c];
      const int64_t row = f.Index(sx.start, sy.start + b, sz.start + c);
      hw.TouchRead(f.data() + row, sizeof(double) * kSupport);
      double row_acc = 0.0;
      for (int a = 0; a < kSupport; ++a) {
        row_acc += sx.w[a] * f.data()[row + a];
      }
      acc += wyz * row_acc;
    }
  }
  // Arithmetic: per row, kSupport FMAs + 2 ops; vectorizes across rows.
  hw.VpuOps(kSupport * kSupport);
  return acc;
}

// The scalar path past shape evaluation: interpolates the six components of
// the particle in slot `i` and stores them.
template <int Order>
void GatherParticle(HwContext& hw, const FieldSet& fields,
                    const ParticleShapes<Order>& s, size_t i,
                    GatherScratch& scratch) {
  // Yee staggering: Ex(i+1/2,j,k), Ey(i,j+1/2,k), Ez(i,j,k+1/2);
  // Bx(i,j+1/2,k+1/2), By(i+1/2,j,k+1/2), Bz(i+1/2,j+1/2,k).
  scratch.ex[i] = GatherComponent<Order>(hw, fields.ex, s.hx, s.ny, s.nz);
  scratch.ey[i] = GatherComponent<Order>(hw, fields.ey, s.nx, s.hy, s.nz);
  scratch.ez[i] = GatherComponent<Order>(hw, fields.ez, s.nx, s.ny, s.hz);
  scratch.bx[i] = GatherComponent<Order>(hw, fields.bx, s.nx, s.hy, s.hz);
  scratch.by[i] = GatherComponent<Order>(hw, fields.by, s.hx, s.ny, s.hz);
  scratch.bz[i] = GatherComponent<Order>(hw, fields.bz, s.hx, s.hy, s.nz);

  hw.TouchWrite(&scratch.ex[i], sizeof(double));
  hw.TouchWrite(&scratch.ey[i], sizeof(double));
  hw.TouchWrite(&scratch.ez[i], sizeof(double));
  hw.TouchWrite(&scratch.bx[i], sizeof(double));
  hw.TouchWrite(&scratch.by[i], sizeof(double));
  hw.TouchWrite(&scratch.bz[i], sizeof(double));
}

// Modeled issue cycles of one GatherParticle call (cache penalties excluded):
// six components of (Order+1)^2 row loads and row dot products, six stores.
template <int Order>
double ScalarParticleCycles(const MachineConfig& cfg) {
  constexpr int kRows = (Order + 1) * (Order + 1);
  return 6.0 * kRows *
             (cfg.scalar_mem_issue_cycles + 1.0 / static_cast<double>(cfg.vpu_pipes)) +
         6.0 * cfg.scalar_mem_issue_cycles;
}

// ---- Cell-batched MPU path ---------------------------------------------------

// Widest union window: two lane windows of Order+1 nodes starting one node
// apart, at QSP.
constexpr int kMaxWindow = 5;

// One axis shape across a batch's lanes on the batch's union window: row r is
// node start + r; each lane's weights sit at its own offset, zero outside its
// window. Bit j of mask[r] is set when lane j's window covers row r.
struct LaneWindow {
  int start = 0;
  int width = 0;
  Vec8 w[kMaxWindow];
  uint8_t mask[kMaxWindow] = {};
};

// Up to kVpuLanes same-cell, same x half-class particles.
template <int Order>
struct CellBatch {
  int n = 0;
  int64_t pid[kVpuLanes];
  ParticleShapes<Order> s[kVpuLanes];
};

template <int Order>
LaneWindow UnionWindow(const CellBatch<Order>& b,
                       AxisShape<Order> ParticleShapes<Order>::*axis) {
  constexpr int kSupport = Order + 1;
  int lo = (b.s[0].*axis).start;
  int hi = lo;
  for (int j = 1; j < b.n; ++j) {
    lo = std::min(lo, (b.s[j].*axis).start);
    hi = std::max(hi, (b.s[j].*axis).start);
  }
  LaneWindow u;
  u.start = lo;
  u.width = hi - lo + kSupport;
  // Same-cell lanes start at most one node apart on every axis.
  MPIC_CHECK(u.width <= std::min(kMaxWindow, kSupport + 1));
  for (int j = 0; j < b.n; ++j) {
    const AxisShape<Order>& a = b.s[j].*axis;
    const int off = a.start - lo;
    for (int t = 0; t < kSupport; ++t) {
      u.w[off + t][j] = a.w[t];
      u.mask[off + t] |= static_cast<uint8_t>(1u << j);
    }
  }
  return u;
}

// (y, z) rows of a tile group that at least one lane's stencil touches.
int LiveRows(const LaneWindow& y, const LaneWindow& z) {
  int rows = 0;
  for (int c = 0; c < z.width; ++c) {
    for (int b = 0; b < y.width; ++b) {
      rows += (y.mask[b] & z.mask[c]) != 0 ? 1 : 0;
    }
  }
  return rows;
}

// The four y/z union windows of a batch (the x windows are shared).
template <int Order>
struct BatchWindows {
  explicit BatchWindows(const CellBatch<Order>& b)
      : ny(UnionWindow(b, &ParticleShapes<Order>::ny)),
        hy(UnionWindow(b, &ParticleShapes<Order>::hy)),
        nz(UnionWindow(b, &ParticleShapes<Order>::nz)),
        hz(UnionWindow(b, &ParticleShapes<Order>::hz)) {}

  // Lane-offset blends that place each lane's weights on the union rows: one
  // predicated move per row of every window wider than one stencil.
  int BlendOps() const {
    int ops = 0;
    for (const LaneWindow* w : {&ny, &hy, &nz, &hz}) {
      ops += w->width > Order + 1 ? w->width : 0;
    }
    return ops;
  }

  LaneWindow ny, hy, nz, hz;
};

// One MPU tile: one field component, or two sharing their (y, z) shapes with
// their x windows stacked in rows [0, Order] and [Order+1, 2*Order+1].
struct TileGroup {
  int comps;
  const FieldArray* f[2];
  int x0[2];
  const Vec8* sx[2];  // x weights per window row, across lanes
  double* out[2];
  const LaneWindow* y;
  const LaneWindow* z;
};

template <int Order>
void RunTileGroup(HwContext& hw, const TileGroup& g, const int64_t* pids,
                  const Mask8& lanes) {
  constexpr int kSupport = Order + 1;
  MpuTileReg tile;
  bool fresh = true;
  for (int c = 0; c < g.z->width; ++c) {
    for (int b = 0; b < g.y->width; ++b) {
      const uint8_t touched = g.y->mask[b] & g.z->mask[c];
      if (touched == 0) {
        continue;
      }
      const Vec8 wyz = hw.VMul(g.y->w[b], g.z->w[c]);
      Vec8 rows = Vec8::Zero();
      for (int k = 0; k < g.comps; ++k) {
        const FieldArray& f = *g.f[k];
        hw.VLoadLanes(f.data() + f.Index(g.x0[k], g.y->start + b, g.z->start + c),
                      k * kSupport, kSupport, rows);
      }
      const int valid = g.comps * kSupport *
                        static_cast<int>(std::bitset<8>(touched).count());
      if (fresh) {
        hw.MopaZero(tile, rows, wyz, valid);
        fresh = false;
      } else {
        hw.Mopa(tile, rows, wyz, valid);
      }
    }
  }
  for (int k = 0; k < g.comps; ++k) {
    Vec8 acc = hw.VMul(g.sx[k][0], hw.TileReadRow(tile, k * kSupport));
    for (int a = 1; a < kSupport; ++a) {
      acc = hw.VFma(g.sx[k][a], hw.TileReadRow(tile, k * kSupport + a), acc);
    }
    hw.VScatter(g.out[k], pids, acc, lanes);
  }
}

// Modeled issue cycles of one MPU batch at its union windows (cache penalties
// excluded): per live (y, z) row an operand product, a MOPA and one field-row
// load per component; then the finish (tile row reads + FMAs), six scatters
// and the lane-offset blends.
template <int Order>
double MpuBatchCycles(const MachineConfig& cfg, const BatchWindows<Order>& w) {
  constexpr int kSupport = Order + 1;
  const double vpu_op = 1.0 / static_cast<double>(cfg.vpu_pipes);
  const int single_rows = LiveRows(w.ny, w.nz) + LiveRows(w.hy, w.hz);  // Ex, Bx
  const int pair_rows = LiveRows(w.hy, w.nz) + LiveRows(w.ny, w.hz);  // Ey+Bz, Ez+By
  return (single_rows + pair_rows) * (cfg.mopa_issue_cycles + vpu_op) +
         (single_rows + 2 * pair_rows) * cfg.vector_mem_issue_cycles +
         6 * kSupport * (cfg.mpu_vpu_transfer_cycles + vpu_op) +
         6 * cfg.gather_issue_cycles + w.BlendOps() * vpu_op;
}

// Gathers one batch: on the MPU when its modeled cost beats the scalar path
// for the same particles, particle by particle otherwise.
template <int Order>
void GatherBatch(HwContext& hw, const FieldSet& fields, const CellBatch<Order>& b,
                 GatherScratch& scratch) {
  constexpr int kSupport = Order + 1;
  const BatchWindows<Order> w(b);
  if (MpuBatchCycles<Order>(hw.cfg(), w) >=
      b.n * ScalarParticleCycles<Order>(hw.cfg())) {
    for (int j = 0; j < b.n; ++j) {
      GatherParticle<Order>(hw, fields, b.s[j], static_cast<size_t>(b.pid[j]),
                            scratch);
    }
    return;
  }
  hw.VpuOps(w.BlendOps());
  // The batch shares both x windows (same cell, same x half-class), so the
  // x weights need no alignment.
  Vec8 sxn[kSupport];
  Vec8 sxh[kSupport];
  for (int j = 0; j < b.n; ++j) {
    for (int a = 0; a < kSupport; ++a) {
      sxn[a][j] = b.s[j].nx.w[a];
      sxh[a][j] = b.s[j].hx.w[a];
    }
  }
  const int xn = b.s[0].nx.start;
  const int xh = b.s[0].hx.start;
  const TileGroup groups[4] = {
      {1, {&fields.ex, nullptr}, {xh, 0}, {sxh, nullptr},
       {scratch.ex.data(), nullptr}, &w.ny, &w.nz},
      {2, {&fields.ey, &fields.bz}, {xn, xh}, {sxn, sxh},
       {scratch.ey.data(), scratch.bz.data()}, &w.hy, &w.nz},
      {2, {&fields.ez, &fields.by}, {xn, xh}, {sxn, sxh},
       {scratch.ez.data(), scratch.by.data()}, &w.ny, &w.hz},
      {1, {&fields.bx, nullptr}, {xn, 0}, {sxn, nullptr},
       {scratch.bx.data(), nullptr}, &w.hy, &w.hz},
  };
  const Mask8 lanes = Mask8::FirstN(b.n);
  for (const TileGroup& g : groups) {
    RunTileGroup<Order>(hw, g, b.pid, lanes);
  }
}

// One batching class of a bin: a cell and x half-class — keyed by the cell's
// y/z indices and the shared x window starts — with its open batch.
template <int Order>
struct BinClass {
  int cy = 0;
  int cz = 0;
  int nx_start = 0;
  int hx_start = 0;
  CellBatch<Order> batch;
  bool Matches(const ParticleShapes<Order>& s) const {
    return s.cy == cy && s.cz == cz && s.nx.start == nx_start &&
           s.hx.start == hx_start;
  }
};

// Classes open per bin: the two x half-classes of the bin's cell, plus room
// for the cells of stale or foreign bin entries.
constexpr int kMaxBinClasses = 4;

}  // namespace

template <int Order>
void GatherFieldsTile(HwContext& hw, const ParticleTile& tile, const FieldSet& fields,
                      GatherScratch& scratch) {
  PhaseScope phase(hw.ledger(), Phase::kGather);
  const ParticleSoA& soa = tile.soa();
  const GridGeometry& g = fields.geom;
  scratch.Resize(soa.size());

  for (size_t i = 0; i < soa.size(); ++i) {
    if (!tile.IsLive(static_cast<int32_t>(i))) {
      hw.ScalarOps(1);
      continue;
    }
    hw.TouchRead(&soa.x[i], sizeof(double));
    hw.TouchRead(&soa.y[i], sizeof(double));
    hw.TouchRead(&soa.z[i], sizeof(double));
    ParticleShapes<Order> s;
    s.Eval(g, soa.x[i], soa.y[i], soa.z[i]);
    hw.ScalarOps(6 * ShapeOps<Order>());
    GatherParticle<Order>(hw, fields, s, i, scratch);
  }
}

template <int Order>
void GatherFieldsTileCells(HwContext& hw, const ParticleTile& tile,
                           const FieldSet& fields, GatherScratch& scratch) {
  static_assert(Order == 2 || Order == 3,
                "the cell-batched gather is defined for TSC (2) and QSP (3)");
  const Gpma& gpma = tile.gpma();
  if (gpma.num_cells() != tile.num_cells() ||
      gpma.num_particles() != tile.num_live()) {
    GatherFieldsTile<Order>(hw, tile, fields, scratch);
    return;
  }
  PhaseScope phase(hw.ledger(), Phase::kGather);
  const ParticleSoA& soa = tile.soa();
  const GridGeometry& g = fields.geom;
  scratch.Resize(soa.size());

  BinClass<Order> cls[kMaxBinClasses];
  ForEachCellBin(hw, tile, [&](int, const int32_t* pids, int32_t len) {
    int open = 0;
    // The class a particle batches into, opened on first sight; nullptr once
    // every class slot is taken by another cell or half-class.
    const auto class_of = [&](const ParticleShapes<Order>& s) -> BinClass<Order>* {
      for (int k = 0; k < open; ++k) {
        if (cls[k].Matches(s)) {
          return &cls[k];
        }
      }
      if (open == kMaxBinClasses) {
        return nullptr;
      }
      BinClass<Order>& c = cls[open++];
      c.cy = s.cy;
      c.cz = s.cz;
      c.nx_start = s.nx.start;
      c.hx_start = s.hx.start;
      c.batch.n = 0;
      return &c;
    };
    for (int32_t s0 = 0; s0 < len; s0 += kVpuLanes) {
      const int count = std::min<int32_t>(kVpuLanes, len - s0);
      int64_t idx[kVpuLanes];
      for (int j = 0; j < count; ++j) {
        idx[j] = pids[s0 + j];
      }
      const Mask8 m = Mask8::FirstN(count);
      const Vec8 x = hw.VGatherAuto(soa.x.data(), idx, m);
      const Vec8 y = hw.VGatherAuto(soa.y.data(), idx, m);
      const Vec8 z = hw.VGatherAuto(soa.z.data(), idx, m);
      // Six axis shapes per lane, then the half-class split (one compare,
      // two compresses).
      hw.VpuOps(6 * ShapeOps<Order>() + 3);
      for (int j = 0; j < count; ++j) {
        ParticleShapes<Order> s;
        s.Eval(g, x[j], y[j], z[j]);
        BinClass<Order>* c = class_of(s);
        if (c == nullptr) {
          GatherParticle<Order>(hw, fields, s, static_cast<size_t>(idx[j]),
                                scratch);
          continue;
        }
        CellBatch<Order>& b = c->batch;
        b.pid[b.n] = idx[j];
        b.s[b.n] = s;
        if (++b.n == kVpuLanes) {
          GatherBatch<Order>(hw, fields, b, scratch);
          b.n = 0;
        }
      }
    }
    for (int k = 0; k < open; ++k) {
      if (cls[k].batch.n > 0) {
        GatherBatch<Order>(hw, fields, cls[k].batch, scratch);
      }
    }
  });
}

template <int Order>
void GatherFieldsTileFor(HwContext& hw, const ParticleTile& tile,
                         const FieldSet& fields, GatherScratch& scratch,
                         bool cell_bins) {
  if constexpr (Order >= 2) {
    if (cell_bins) {
      GatherFieldsTileCells<Order>(hw, tile, fields, scratch);
      return;
    }
  }
  GatherFieldsTile<Order>(hw, tile, fields, scratch);
}

void RegisterGatherRegions(HwContext& hw, uint64_t tile_key_base,
                           const GatherScratch& scratch) {
  uint64_t key = tile_key_base;
  for (const std::vector<double>* v :
       {&scratch.ex, &scratch.ey, &scratch.ez, &scratch.bx, &scratch.by,
        &scratch.bz}) {
    const uint64_t k = key++;
    if (!v->empty()) {
      hw.RegisterRegionKeyed(k, v->data(), v->size() * sizeof(double));
    }
  }
}

template void GatherFieldsTile<1>(HwContext&, const ParticleTile&, const FieldSet&,
                                  GatherScratch&);
template void GatherFieldsTile<2>(HwContext&, const ParticleTile&, const FieldSet&,
                                  GatherScratch&);
template void GatherFieldsTile<3>(HwContext&, const ParticleTile&, const FieldSet&,
                                  GatherScratch&);
template void GatherFieldsTileCells<2>(HwContext&, const ParticleTile&,
                                       const FieldSet&, GatherScratch&);
template void GatherFieldsTileCells<3>(HwContext&, const ParticleTile&,
                                       const FieldSet&, GatherScratch&);
template void GatherFieldsTileFor<1>(HwContext&, const ParticleTile&,
                                     const FieldSet&, GatherScratch&, bool);
template void GatherFieldsTileFor<2>(HwContext&, const ParticleTile&,
                                     const FieldSet&, GatherScratch&, bool);
template void GatherFieldsTileFor<3>(HwContext&, const ParticleTile&,
                                     const FieldSet&, GatherScratch&, bool);

}  // namespace mpic
