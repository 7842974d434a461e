// Field gather (grid -> particle interpolation) with Yee staggering.
//
// E and B components live at staggered half-cell offsets; the gather shifts the
// particle's grid-unit coordinate by 0.5 on each staggered axis before
// evaluating the shape function, which is how WarpX handles staggering.
// Results are written to per-slot staging arrays consumed by the pusher.
//
// Together with deposition this dominates PIC runtime (Fig. 1); the gather is
// charged to Phase::kGather and its memory behavior (scattered reads over six
// field arrays) responds to particle sorting just like deposition does.
//
// Two entry points compute the same interpolation:
//
//   GatherFieldsTile       — the scalar reference: per particle in slot order,
//                            six axis shapes, then (Order+1)^2 row loads and
//                            row dot products per component.
//   GatherFieldsTileCells  — the cell-batched MPU gather, the transpose of the
//                            MPU deposition. Under the GPMA cell sort a batch
//                            of same-cell particles shares one stencil, so
//                            interpolation becomes a sum of outer products.
//
// Cell-batched formulation. Each GPMA bin is split by x half-cell: inside one
// class every particle shares the start of both its node-aligned and its
// staggered x window, so both x windows have width Order+1 for the whole
// batch. A batch
// of <= 8 same-class particles (one per VPU lane) then
//   1. evaluates its six axis shapes once, on the VPU. The y and z windows of
//      the lanes may start one node apart; each becomes the union window
//      (<= Order+2 rows), every lane's weights placed at its own offset;
//   2. issues, per field component and per (y, z) union row,
//        tile[a][lane] += F[x0 + a, y, z] (x) (Sy * Sz)[lane]
//      with the field row as one contiguous (masked) load. Ey+Bz and Ez+By
//      share their (y, z) shapes, so each pair packs into one tile: rows
//      0..Order from the node-aligned x window of Ey (Ez), rows
//      Order+1..2*Order+1 from the staggered window of Bz (By) — 8 rows at
//      QSP. Ex and Bx fill Order+1 rows each. Rows no lane touches are
//      skipped;
//   3. finishes with E[lane] = sum_a Sx[lane, a] * tile row a (TileReadRow +
//      VFma) and scatters the six results into GatherScratch by pid, so the
//      pusher is untouched.
// Per full QSP batch that is at most 16 + 20 + 20 + 25 = 81 MOPAs and 121 row
// loads for 8 particles, against 96 row loads and 96 row dot products per
// particle on the scalar path.
//
// Stencil windows come from each particle's own position, never from the bin
// id: bins stay one z-cell stale after a moving-window shift until the next
// scan. Batches are keyed by each particle's own cell and x half-class (up to
// four classes per bin), so a stale or foreign bin entry batches with its own
// cell's particles, or takes the scalar per-particle path. A tile whose GPMA
// does not hold every live particle runs the scalar reference.
//
// Selection rule (no configuration knob): shape order and batch occupancy
// decide. Orders >= 2 only — at CIC the 2x2 stencil leaves too little to
// batch. For each batch the modeled issue cost of the MPU path (MOPAs, row
// loads, operand products, finish, scatters, at the batch's actual union
// widths) is compared with the scalar per-particle cost times the batch size
// (both from MachineConfig); the cheaper one runs. Sparse bins therefore fall
// back to scalar particles automatically.

#ifndef MPIC_SRC_PUSH_FIELD_GATHER_H_
#define MPIC_SRC_PUSH_FIELD_GATHER_H_

#include <vector>

#include "src/grid/field_set.h"
#include "src/hw/hw_context.h"
#include "src/particles/particle_tile.h"

namespace mpic {

// Gathered fields at particle positions, indexed by SoA slot.
struct GatherScratch {
  void Resize(size_t n) {
    ex.resize(n);
    ey.resize(n);
    ez.resize(n);
    bx.resize(n);
    by.resize(n);
    bz.resize(n);
  }
  std::vector<double> ex, ey, ez, bx, by, bz;
};

// Gathers E and B for every live particle of the tile (scalar reference).
// Guard cells of the field arrays must be filled (periodic images) before
// calling. The scratch must already be sized to the tile's slot count and
// registered with the model's address space (RegisterGatherRegions) by the
// serial pre-pass.
template <int Order>
void GatherFieldsTile(HwContext& hw, const ParticleTile& tile, const FieldSet& fields,
                      GatherScratch& scratch);

// Cell-batched MPU gather of the tile (Order 2 or 3; see the header comment),
// iterating the tile's GPMA bins. Same preconditions as GatherFieldsTile, plus
// an MPU on the machine. Agrees with GatherFieldsTile to rounding (the
// summation order differs); falls back to it wholesale when the GPMA does not
// bin every live particle.
template <int Order>
void GatherFieldsTileCells(HwContext& hw, const ParticleTile& tile,
                           const FieldSet& fields, GatherScratch& scratch);

// The gather a species runs: GatherFieldsTileCells when `cell_bins` (its
// deposit variant keeps GPMA cell bins and has an MPU: VariantTraits
// uses_mpu && sorted_iteration) and Order >= 2; GatherFieldsTile otherwise,
// so CIC species charge exactly the scalar path.
template <int Order>
void GatherFieldsTileFor(HwContext& hw, const ParticleTile& tile,
                         const FieldSet& fields, GatherScratch& scratch,
                         bool cell_bins);

// Registers the six gathered-field staging arrays with the hardware model's
// address space under stable keys (`tile_key_base` from MemRegionKey; streams
// 0..5). Without this the gather's scratch writes (and the pusher's reads)
// fall back to identity-mapped host addresses, making the modeled cache
// behavior depend on where the allocator happened to place the vectors — the
// source of the former run-to-run cycle noise. Cheap no-op while the vectors
// keep their allocation.
void RegisterGatherRegions(HwContext& hw, uint64_t tile_key_base,
                           const GatherScratch& scratch);

}  // namespace mpic

#endif  // MPIC_SRC_PUSH_FIELD_GATHER_H_
