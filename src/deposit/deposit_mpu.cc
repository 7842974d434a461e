#include "src/deposit/deposit_mpu.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/deposit/deposit_rhocell.h"
#include "src/deposit/particle_iteration.h"

namespace mpic {
namespace {

// Gathers the staged streams needed at a given order for a batch of pids.
template <int Order>
void GatherStagedBatch(HwContext& hw, const DepositScratch& scratch,
                       const int64_t* pids, int count) {
  constexpr int kSupport = Order + 1;
  const Mask8 m = Mask8::FirstN(count);
  for (int t = 0; t < kSupport; ++t) {
    hw.VGatherAuto(scratch.sx[t].data(), pids, m);
    hw.VGatherAuto(scratch.sy[t].data(), pids, m);
    hw.VGatherAuto(scratch.sz_[t].data(), pids, m);
  }
  hw.VGatherAuto(scratch.wqx.data(), pids, m);
  hw.VGatherAuto(scratch.wqy.data(), pids, m);
  hw.VGatherAuto(scratch.wqz.data(), pids, m);
}

// Issues one MOPA; `fresh` starts a new accumulation (MopaZero) instead of
// adding to the tile.
void IssueMopa(HwContext& hw, bool fresh, MpuTileReg& tile, const Vec8& rows,
               const Vec8& cols, int valid_slots) {
  if (fresh) {
    hw.MopaZero(tile, rows, cols, valid_slots);
  } else {
    hw.Mopa(tile, rows, cols, valid_slots);
  }
}

// ---------------------------------------------------------------------------
// Order 1 (CIC): one row operand [syz_p | syz_q] shared by two tiles,
// tiles[0] with columns [wqx·sx, wqy·sx (p) | (q)], tiles[1] with
// [wqz·sx (p) | (q) | 0].
// ---------------------------------------------------------------------------

void CicMopaPair(HwContext& hw, const DepositScratch& scratch, int64_t p, int64_t q,
                 bool fresh, MpuTileReg tiles[2]) {
  Vec8 rows = Vec8::Zero();
  Vec8 xy = Vec8::Zero();
  Vec8 z = Vec8::Zero();
  const int64_t pair[2] = {p, q};
  for (int cls = 0; cls < 2 && pair[cls] >= 0; ++cls) {
    const auto i = static_cast<size_t>(pair[cls]);
    for (int c = 0; c < 2; ++c) {
      for (int b = 0; b < 2; ++b) {
        rows[4 * cls + b + 2 * c] = scratch.sy[b][i] * scratch.sz_[c][i];
      }
    }
    for (int a = 0; a < 2; ++a) {
      xy[4 * cls + a] = scratch.wqx[i] * scratch.sx[a][i];
      xy[4 * cls + 2 + a] = scratch.wqy[i] * scratch.sx[a][i];
      z[2 * cls + a] = scratch.wqz[i] * scratch.sx[a][i];
    }
  }
  hw.VpuOps(5);  // operand assembly (deposit_mpu.h)
  const int particles = q >= 0 ? 2 : 1;
  IssueMopa(hw, fresh, tiles[0], rows, xy, 16 * particles);
  IssueMopa(hw, fresh, tiles[1], rows, z, 8 * particles);
}

// Reads the class blocks (p at rows 0-3, q at rows 4-7) out of the two tiles
// in the rhocell layout k = a + 2m. The caller charges the permute network.
void CicReadTiles(HwContext& hw, const MpuTileReg tiles[2], int classes,
                  double nodes[2][3][8]) {
  for (int cls = 0; cls < classes; ++cls) {
    for (int m = 0; m < 4; ++m) {
      const Vec8 xy = hw.TileReadRow(tiles[0], 4 * cls + m);
      const Vec8 z = hw.TileReadRow(tiles[1], 4 * cls + m);
      for (int a = 0; a < 2; ++a) {
        nodes[cls][0][a + 2 * m] = xy[4 * cls + a];
        nodes[cls][1][a + 2 * m] = xy[4 * cls + 2 + a];
        nodes[cls][2][a + 2 * m] = z[2 * cls + a];
      }
    }
  }
}

// Accumulates an 8-node contribution set into one cell's rhocell blocks.
void CicAccumulateBlocks(HwContext& hw, RhocellBuffer& rhocell, int cell,
                         const double nodes[3][8]) {
  double* blocks[3] = {rhocell.CellJx(cell), rhocell.CellJy(cell),
                       rhocell.CellJz(cell)};
  for (int comp = 0; comp < 3; ++comp) {
    hw.TouchRead(blocks[comp], sizeof(double) * 8);
    hw.VpuOps(1);  // vector add
    for (int k = 0; k < 8; ++k) {
      blocks[comp][k] += nodes[comp][k];
    }
    hw.TouchWrite(blocks[comp], sizeof(double) * 8);
  }
}

void DepositMpuCic(HwContext& hw, const ParticleTile& tile,
                   const DepositScratch& scratch, RhocellBuffer& rhocell,
                   MpuScheduling scheduling) {
  PhaseScope phase(hw.ledger(), Phase::kCompute);
  MpuTileReg tiles[2];
  int64_t batch[kVpuLanes];

  if (scheduling == MpuScheduling::kCellResident) {
    // Tiles accumulate across every particle of the cell; one drain per cell
    // merges the p-class and q-class blocks (same cell by sorting).
    ForEachCellBin(hw, tile, [&](int cell, const int32_t* pids, int32_t len) {
      for (int32_t s = 0; s < len; s += kVpuLanes) {
        const int count = std::min<int32_t>(kVpuLanes, len - s);
        for (int j = 0; j < count; ++j) {
          batch[j] = pids[s + j];
        }
        GatherStagedBatch<1>(hw, scratch, batch, count);
        for (int j = 0; j < count; j += 2) {
          CicMopaPair(hw, scratch, batch[j], j + 1 < count ? batch[j + 1] : -1,
                      s + j == 0, tiles);
        }
      }
      const int classes = len >= 2 ? 2 : 1;
      double nodes[2][3][8];
      CicReadTiles(hw, tiles, classes, nodes);
      hw.VpuOps(classes == 2 ? 15 : 7);  // drain network, merge adds
      if (classes == 2) {
        for (int comp = 0; comp < 3; ++comp) {
          for (int k = 0; k < 8; ++k) {
            nodes[0][comp][k] += nodes[1][comp][k];
          }
        }
      }
      CicAccumulateBlocks(hw, rhocell, cell, nodes[0]);
    });
    return;
  }

  // Pairwise: slot order; tiles are drained after every pair, and each
  // particle's block goes to its own cell (the pair may straddle cells).
  int batch_fill = 0;
  auto flush = [&]() {
    if (batch_fill == 0) {
      return;
    }
    GatherStagedBatch<1>(hw, scratch, batch, batch_fill);
    for (int j = 0; j < batch_fill; j += 2) {
      const int classes = j + 1 < batch_fill ? 2 : 1;
      CicMopaPair(hw, scratch, batch[j], classes == 2 ? batch[j + 1] : -1,
                  /*fresh=*/true, tiles);
      double nodes[2][3][8];
      CicReadTiles(hw, tiles, classes, nodes);
      hw.VpuOps(7 * classes);  // drain network per class
      for (int cls = 0; cls < classes; ++cls) {
        const auto i = static_cast<size_t>(batch[j + cls]);
        CicAccumulateBlocks(hw, rhocell, StagedCellOf<1>(tile, scratch, i),
                            nodes[cls]);
      }
    }
    batch_fill = 0;
  };
  ForEachParticle(hw, tile, /*sorted=*/false, [&](int32_t pid) {
    batch[batch_fill++] = pid;
    if (batch_fill == kVpuLanes) {
      flush();
    }
  });
  flush();
}

// ---------------------------------------------------------------------------
// Order 3 (QSP): four tiles per particle, indexed kXyLo, kXyHi, kZLo, kZHi.
// Rows lo/hi carry the yz weights of m = 0..7 / 8..15, columns
// [wqx·sx | wqy·sx] (xy tiles) or [wqz·sx | 0] (z tiles).
// ---------------------------------------------------------------------------

enum QspTile { kXyLo = 0, kXyHi = 1, kZLo = 2, kZHi = 3 };

void QspMopas(HwContext& hw, const DepositScratch& scratch, int64_t pid, bool fresh,
              MpuTileReg tiles[4]) {
  const auto i = static_cast<size_t>(pid);
  Vec8 rows[2];  // lo, hi
  for (int h = 0; h < 2; ++h) {
    for (int half = 0; half < 2; ++half) {
      const double sz = scratch.sz_[2 * h + half][i];
      for (int b = 0; b < 4; ++b) {
        rows[h][4 * half + b] = scratch.sy[b][i] * sz;
      }
    }
  }
  Vec8 xy;
  Vec8 z = Vec8::Zero();
  for (int a = 0; a < 4; ++a) {
    xy[a] = scratch.wqx[i] * scratch.sx[a][i];
    xy[4 + a] = scratch.wqy[i] * scratch.sx[a][i];
    z[a] = scratch.wqz[i] * scratch.sx[a][i];
  }
  hw.VpuOps(9);  // operand assembly (deposit_mpu.h)
  for (int t = kXyLo; t <= kZHi; ++t) {
    IssueMopa(hw, fresh, tiles[t], rows[t % 2], t < kZLo ? xy : z,
              t < kZLo ? 64 : 32);
  }
}

// Drains the four tiles into one cell's rhocell blocks (k = a + 4m). Rows
// (2j, 2j+1) of an xy tile give 8-vector j of Jx (low halves) and of Jy (high
// halves), those of a z tile 8-vector j of Jz: one two-source permute per
// output vector, one add into the block.
void QspDrain(HwContext& hw, const MpuTileReg tiles[4], RhocellBuffer& rhocell,
              int cell) {
  double* blocks[3] = {rhocell.CellJx(cell), rhocell.CellJy(cell),
                       rhocell.CellJz(cell)};
  for (int h = 0; h < 2; ++h) {
    for (int r = 0; r < 8; r += 2) {
      const Vec8 xy[2] = {hw.TileReadRow(tiles[kXyLo + h], r),
                          hw.TileReadRow(tiles[kXyLo + h], r + 1)};
      const Vec8 z[2] = {hw.TileReadRow(tiles[kZLo + h], r),
                         hw.TileReadRow(tiles[kZLo + h], r + 1)};
      hw.VpuOps(3);  // one permute per component vector
      const int base = 4 * (8 * h + r);
      for (int comp = 0; comp < 3; ++comp) {
        double* out = blocks[comp] + base;
        hw.TouchRead(out, sizeof(double) * kVpuLanes);
        hw.VpuOps(1);  // vector add
        for (int row = 0; row < 2; ++row) {
          for (int a = 0; a < 4; ++a) {
            out[4 * row + a] += comp == 2 ? z[row][a] : xy[row][4 * comp + a];
          }
        }
        hw.TouchWrite(out, sizeof(double) * kVpuLanes);
      }
    }
  }
}

void DepositMpuQsp(HwContext& hw, const ParticleTile& tile,
                   const DepositScratch& scratch, RhocellBuffer& rhocell,
                   MpuScheduling scheduling) {
  PhaseScope phase(hw.ledger(), Phase::kCompute);
  MpuTileReg tiles[4];
  int64_t batch[kVpuLanes];

  if (scheduling == MpuScheduling::kCellResident) {
    // One pass per bin: all three components ride the four resident tiles.
    ForEachCellBin(hw, tile, [&](int cell, const int32_t* pids, int32_t len) {
      for (int32_t s = 0; s < len; s += kVpuLanes) {
        const int count = std::min<int32_t>(kVpuLanes, len - s);
        for (int j = 0; j < count; ++j) {
          batch[j] = pids[s + j];
        }
        GatherStagedBatch<3>(hw, scratch, batch, count);
        for (int j = 0; j < count; ++j) {
          QspMopas(hw, scratch, batch[j], s + j == 0, tiles);
        }
      }
      QspDrain(hw, tiles, rhocell, cell);
    });
    return;
  }

  // Pairwise: slot order; every particle's four tiles are drained into its
  // own cell right after its MOPAs.
  int batch_fill = 0;
  auto flush = [&]() {
    if (batch_fill == 0) {
      return;
    }
    GatherStagedBatch<3>(hw, scratch, batch, batch_fill);
    for (int j = 0; j < batch_fill; ++j) {
      QspMopas(hw, scratch, batch[j], /*fresh=*/true, tiles);
      QspDrain(hw, tiles, rhocell,
               StagedCellOf<3>(tile, scratch, static_cast<size_t>(batch[j])));
    }
    batch_fill = 0;
  };
  ForEachParticle(hw, tile, /*sorted=*/false, [&](int32_t pid) {
    batch[batch_fill++] = pid;
    if (batch_fill == kVpuLanes) {
      flush();
    }
  });
  flush();
}

}  // namespace

template <int Order>
void DepositMpu(HwContext& hw, const ParticleTile& tile, const DepositParams& params,
                const DepositScratch& scratch, RhocellBuffer& rhocell,
                MpuScheduling scheduling) {
  static_assert(Order == 1 || Order == 3,
                "the MPU mapping is defined for CIC (1) and QSP (3)");
  (void)params;
  if constexpr (Order == 1) {
    DepositMpuCic(hw, tile, scratch, rhocell, scheduling);
  } else {
    DepositMpuQsp(hw, tile, scratch, rhocell, scheduling);
  }
}

template void DepositMpu<1>(HwContext&, const ParticleTile&, const DepositParams&,
                            const DepositScratch&, RhocellBuffer&,
                            MpuScheduling);
template void DepositMpu<3>(HwContext&, const ParticleTile&, const DepositParams&,
                            const DepositScratch&, RhocellBuffer&,
                            MpuScheduling);

}  // namespace mpic
