// MatrixPIC MPU deposition kernels (paper Sec. 4.2): current deposition
// reformulated as vector outer products on the 8x8 FP64 MPU tile.
//
// Component packing. Direct deposition gives Jx, Jy and Jz the same
// node-aligned shapes, so all three components share one outer product:
// the tile rows carry the particle's yz node weights Sy(b)·Sz(c), the tile
// columns carry wq_comp·Sx(a) for two components side by side. Node (a, m)
// of a cell's rhocell block is k = a + (Order+1)·m, m the yz node index.
// The paper's pair layout (two particles per MOPA, one component per tile)
// fills 25% of a CIC tile and 50% of a QSP tile.
//
// Order 3 (QSP), one particle per MOPA group, four MOPAs per particle:
//   rows  lo = [sy0..3·sz0 | sy0..3·sz1]   (m = b + 4c = 0..7)
//         hi = [sy0..3·sz2 | sy0..3·sz3]   (m = 8..15)
//   cols  xy = [wqx·sx0..3 | wqy·sx0..3],  z = [wqz·sx0..3 | 0]
//   T_xy_lo += lo ⊗ xy, T_xy_hi += hi ⊗ xy, T_z_lo += lo ⊗ z, T_z_hi += hi ⊗ z
//   64 + 64 + 32 + 32 = 192 of 256 slots valid: 75% occupancy.
//   Tile row m holds [Jx | Jy] at k = 4m..4m+3, so rows (2j, 2j+1) form the
//   contiguous rhocell 8-vector j of each component.
//
// Order 1 (CIC), two particles p, q per MOPA pair, two MOPAs per pair:
//   rows  [syz_p | syz_q],  syz = [sy0·sz0, sy1·sz0, sy0·sz1, sy1·sz1]
//   cols  xy = [wqx·sx0, wqx·sx1, wqy·sx0, wqy·sx1 (p) | (q)]
//         z  = [wqz·sx0, wqz·sx1 (p) | (q) | 0, 0, 0, 0]
//   p's nodes live in rows 0-3, q's in rows 4-7; cross blocks are never read.
//   32 + 16 = 48 of 128 slots valid: 37.5% occupancy, 24 slots per particle.
//
// VPU cost, one op per permute, broadcast, multiply or add:
//   QSP per particle: 9 (rows: sy duplicate, two sz-pair broadcasts, two
//     multiplies; cols: sx duplicate, wqx|wqy broadcast, two multiplies).
//   QSP per cell drain: 24 two-row permutes (8 per component) reading 32
//     tile rows, plus one add per rhocell 8-vector (24).
//   CIC per pair: 5 (rows: two permutes and a multiply; each column operand
//     one multiply on the pre-permuted batch registers).
//   CIC drain per particle class: 7 (Jx/Jy: two row-pair permutes and two
//     splitting permutes; Jz: two row-pair permutes and one join). A
//     cell-resident drain adds both classes before the output permutes,
//     15 ops in all, plus one add per component into the rhocell block.
//
// Scheduling:
//   kCellResident — requires cell-sorted particles; accumulator tiles stay
//     resident across all particles of a cell (one pass per bin; the first
//     MOPA group of a bin is a MopaZero) and are drained to the rhocell once
//     per cell (the register-reuse the incremental sorter exists for).
//   kPairwise     — no sorting assumption; tiles are drained after every
//     MOPA group (a QSP particle, a CIC pair of the slot-order batch) into
//     each particle's own cell (models Hybrid-noSort's VPU<->MPU traffic).

#ifndef MPIC_SRC_DEPOSIT_DEPOSIT_MPU_H_
#define MPIC_SRC_DEPOSIT_DEPOSIT_MPU_H_

#include "src/deposit/deposit_params.h"
#include "src/deposit/rhocell.h"
#include "src/hw/hw_context.h"
#include "src/particles/particle_tile.h"

namespace mpic {

enum class MpuScheduling {
  kCellResident,
  kPairwise,
};

// Deposits all live particles of the tile into `rhocell` using the MPU.
// kCellResident iterates via the tile's GPMA (particles must be cell-sorted);
// kPairwise iterates in SoA slot order. Charged to Phase::kCompute.
//
// Every bin takes the MPU path, however sparse. The paper's adaptive sparse-bin
// VPU fallback (Sec. 6.1, 7) is not modeled; see ROADMAP item 4.
template <int Order>
void DepositMpu(HwContext& hw, const ParticleTile& tile, const DepositParams& params,
                const DepositScratch& scratch, RhocellBuffer& rhocell,
                MpuScheduling scheduling);

}  // namespace mpic

#endif  // MPIC_SRC_DEPOSIT_DEPOSIT_MPU_H_
