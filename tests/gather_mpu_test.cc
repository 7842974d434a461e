// Tests for the cell-batched MPU field gather (src/push/field_gather.h):
// agreement with the scalar reference on dense, sparse and edge bins at TSC
// and QSP, the stale-bin case after a moving-window shift, the order-1
// dispatch staying on the scalar path, and physics/ledger determinism of the
// MPU gather across cores, tile schedules and host threads.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/simulation.h"
#include "src/core/workloads.h"
#include "src/push/field_gather.h"
#include "src/runtime/digest.h"

namespace mpic {
namespace {

constexpr double kMaxRelError = 1e-12;

void SetThreads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

// A one-tile world covering the whole 8^3 grid with positive random fields
// (guards included), so relative errors are well defined everywhere.
struct GatherWorld {
  explicit GatherWorld(uint64_t seed)
      : geom(MakeGeom()), fields(geom, /*guard_cells=*/2), tile(0, 0, 0, 8, 8, 8) {
    Rng rng(seed);
    for (FieldArray* f : {&fields.ex, &fields.ey, &fields.ez, &fields.bx,
                          &fields.by, &fields.bz}) {
      for (double& v : f->vec()) {
        v = rng.Uniform(0.5, 1.5);
      }
    }
  }

  static GridGeometry MakeGeom() {
    GridGeometry g;
    g.nx = g.ny = g.nz = 8;
    g.dx = g.dy = g.dz = 1.0e-6;
    return g;
  }

  // Adds a particle at cell (i, j, k) + fractional offsets (fx, fy, fz).
  void Add(int i, int j, int k, double fx, double fy, double fz) {
    Particle p;
    p.x = (i + fx) * geom.dx;
    p.y = (j + fy) * geom.dy;
    p.z = (k + fz) * geom.dz;
    tile.AddParticle(p);
  }

  // Fills cell (i, j, k) with `count` particles spread over both x halves.
  void FillCell(int i, int j, int k, int count, Rng& rng) {
    for (int n = 0; n < count; ++n) {
      const double fx = (n % 2 == 0 ? 0.0 : 0.5) + rng.Uniform(0.0, 0.5);
      Add(i, j, k, fx, rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0));
    }
  }

  GridGeometry geom;
  FieldSet fields;
  ParticleTile tile;
};

void ExpectScratchClose(const GatherScratch& ref, const GatherScratch& got) {
  EXPECT_LE(RelMaxError(ref.ex, got.ex), kMaxRelError);
  EXPECT_LE(RelMaxError(ref.ey, got.ey), kMaxRelError);
  EXPECT_LE(RelMaxError(ref.ez, got.ez), kMaxRelError);
  EXPECT_LE(RelMaxError(ref.bx, got.bx), kMaxRelError);
  EXPECT_LE(RelMaxError(ref.by, got.by), kMaxRelError);
  EXPECT_LE(RelMaxError(ref.bz, got.bz), kMaxRelError);
}

// Runs both entry points on the world's tile; returns the gather MOPAs the
// cell path issued.
template <int Order>
uint64_t CompareWithScalar(GatherWorld& w) {
  w.tile.BuildGpma(w.geom, GpmaConfig{});
  HwContext ref_hw;
  HwContext cell_hw;
  GatherScratch ref;
  GatherScratch got;
  GatherFieldsTile<Order>(ref_hw, w.tile, w.fields, ref);
  GatherFieldsTileCells<Order>(cell_hw, w.tile, w.fields, got);
  ExpectScratchClose(ref, got);
  EXPECT_EQ(cell_hw.ledger().counters().gather_mopas,
            cell_hw.ledger().counters().mopas);
  return cell_hw.ledger().counters().gather_mopas;
}

template <int Order>
void DenseAndSparseBinsMatchScalar() {
  GatherWorld w(11 + Order);
  Rng rng(5);
  // Dense interior cells (several full batches per x half-class, plus
  // remainders), sparse cells of 1..3 particles, and cells on every tile
  // face and corner, whose stencils reach the guard nodes.
  w.FillCell(3, 4, 4, 40, rng);
  w.FillCell(4, 4, 4, 17, rng);
  w.FillCell(5, 2, 6, 64, rng);
  w.FillCell(2, 5, 3, 1, rng);
  w.FillCell(6, 6, 2, 3, rng);
  w.FillCell(0, 0, 0, 24, rng);
  w.FillCell(7, 7, 7, 24, rng);
  w.FillCell(0, 7, 3, 12, rng);
  w.FillCell(7, 0, 5, 2, rng);
  // Exact half-cell and cell-face positions (class boundaries).
  for (int n = 0; n < 9; ++n) {
    w.Add(1, 1, 1, 0.5, 0.5, 0.5);
    w.Add(1, 1, 1, 0.0, 0.0, 0.0);
  }
  EXPECT_GT(CompareWithScalar<Order>(w), 0u) << "no batch took the MPU path";
}

TEST(GatherMpu, Order2DenseAndSparseBinsMatchScalar) {
  DenseAndSparseBinsMatchScalar<2>();
}

TEST(GatherMpu, Order3DenseAndSparseBinsMatchScalar) {
  DenseAndSparseBinsMatchScalar<3>();
}

// Sparse bins only: the selection rule hands every batch to the scalar
// particles, so no MOPA issues — and the values still match.
TEST(GatherMpu, SparseBinsStayOnScalarParticles) {
  GatherWorld w(3);
  Rng rng(9);
  for (int k = 0; k < 8; k += 3) {
    for (int i = 0; i < 8; i += 2) {
      w.FillCell(i, (i + k) % 8, k, 1 + (i % 2), rng);
    }
  }
  EXPECT_EQ(CompareWithScalar<3>(w), 0u);
}

// A foreign bin entry (a particle binned under another cell) must take the
// scalar path from its own position — the stale-bin rule.
TEST(GatherMpu, ForeignBinEntriesGatherFromTheirOwnPosition) {
  GatherWorld w(21);
  Rng rng(2);
  w.FillCell(3, 3, 3, 32, rng);
  w.tile.BuildGpma(w.geom, GpmaConfig{});
  // Move a few binned particles one cell in z behind the GPMA's back, as a
  // moving-window shift does to every particle.
  for (int32_t pid = 0; pid < 32; pid += 5) {
    w.tile.soa().z[static_cast<size_t>(pid)] += w.geom.dz;
  }
  HwContext ref_hw;
  HwContext cell_hw;
  GatherScratch ref;
  GatherScratch got;
  GatherFieldsTile<3>(ref_hw, w.tile, w.fields, ref);
  GatherFieldsTileCells<3>(cell_hw, w.tile, w.fields, got);
  ExpectScratchClose(ref, got);
  EXPECT_GT(cell_hw.ledger().counters().gather_mopas, 0u);
}

// At CIC the dispatch stays on the scalar reference: the ledger of the
// dispatched gather equals the scalar function's in every phase and counter.
TEST(GatherMpu, Order1DispatchChargesExactlyTheScalarPath) {
  GatherWorld w(4);
  Rng rng(8);
  w.FillCell(2, 3, 4, 64, rng);
  w.FillCell(5, 5, 5, 27, rng);
  w.tile.BuildGpma(w.geom, GpmaConfig{});
  // One scratch for both runs: unregistered arrays map by host address, so
  // the modeled cache sees the same lines only if the writes land in place.
  HwContext ref_hw;
  HwContext got_hw;
  GatherScratch scratch;
  GatherFieldsTile<1>(ref_hw, w.tile, w.fields, scratch);
  const GatherScratch ref = scratch;
  GatherFieldsTileFor<1>(got_hw, w.tile, w.fields, scratch, /*cell_bins=*/true);
  const GatherScratch& got = scratch;
  for (int ph = 0; ph < kNumPhases; ++ph) {
    EXPECT_EQ(ref_hw.ledger().PhaseCycles(static_cast<Phase>(ph)),
              got_hw.ledger().PhaseCycles(static_cast<Phase>(ph)))
        << PhaseName(static_cast<Phase>(ph));
  }
  const LedgerCounters& a = ref_hw.ledger().counters();
  const LedgerCounters& b = got_hw.ledger().counters();
  EXPECT_EQ(a.scalar_ops, b.scalar_ops);
  EXPECT_EQ(a.scalar_mem, b.scalar_mem);
  EXPECT_EQ(a.vpu_ops, b.vpu_ops);
  EXPECT_EQ(a.vpu_mem, b.vpu_mem);
  EXPECT_EQ(a.l1_misses, b.l1_misses);
  EXPECT_EQ(b.mopas, 0u);
  EXPECT_EQ(ref.ex, got.ex);
  EXPECT_EQ(ref.bz, got.bz);

  // The same dispatch at QSP takes the MPU.
  HwContext qsp_hw;
  GatherFieldsTileFor<3>(qsp_hw, w.tile, w.fields, scratch, /*cell_bins=*/true);
  EXPECT_GT(qsp_hw.ledger().counters().gather_mopas, 0u);
}

// The LWFA workload at QSP (MakeLwfaSimulation is CIC, as in the paper).
std::unique_ptr<Simulation> MakeQspLwfa(HwContext& hw, DepositVariant variant) {
  LwfaWorkloadParams p;
  p.nx = p.ny = 4;
  p.nz = 32;
  p.ppc_x = p.ppc_y = p.ppc_z = 3;
  p.tile = 4;
  p.tile_z = 8;
  p.variant = variant;
  SimulationConfig cfg = MakeLwfaConfig(p);
  cfg.engine.order = 3;
  auto sim = std::make_unique<Simulation>(hw, cfg);
  ProfiledPlasmaConfig seed = *cfg.species[0].window_injection;
  seed.z_cell_lo = 0;
  seed.z_cell_hi = cfg.geom.nz;
  sim->SeedProfiledPlasma(0, seed);
  sim->Initialize();
  return sim;
}

// Stale bins end to end: a QSP kFullOpt LWFA run crosses several window
// shifts, after each of which the GPMA bins sit one z-cell off until the
// next scan. Its fields must agree with the unsorted kBaseline run, as in
// Lwfa.VariantsAgreeOnFields.
TEST(GatherMpu, StaleBinsAfterWindowShiftAgreeWithBaseline) {
  HwContext hw_a;
  auto base = MakeQspLwfa(hw_a, DepositVariant::kBaseline);
  HwContext hw_b;
  auto mpu = MakeQspLwfa(hw_b, DepositVariant::kFullOpt);
  const double z0 = mpu->fields().geom.z0;
  base->Run(6);
  mpu->Run(6);
  EXPECT_GE(mpu->fields().geom.z0 - z0, 2.0 * mpu->fields().geom.dz)
      << "the window must shift across the run";
  EXPECT_GT(hw_b.ledger().counters().gather_mopas, 0u);
  EXPECT_EQ(hw_a.ledger().counters().gather_mopas, 0u);
  EXPECT_LT(RelMaxError(base->fields().ey.vec(), mpu->fields().ey.vec()), 1e-9);
  EXPECT_LT(RelMaxError(base->fields().jz.vec(), mpu->fields().jz.vec()), 1e-9);
}

// Uniform QSP kFullOpt with the MPU gather live: physics digests agree across
// cores {1, 2, 4} x kStatic/kCostSteal, and every configuration charges
// bit-identical cycles in all 11 phases (and the same gather MOPA counters)
// at 1 and 4 host threads.
TEST(GatherMpu, DigestsAndLedgerDeterministicAcrossCoresPipelinesSchedules) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.tile = 4;
  p.ppc_x = p.ppc_y = p.ppc_z = 3;
  p.order = 3;
  p.variant = DepositVariant::kFullOpt;
  uint64_t digest0 = 0;
  bool first = true;
  for (int cores : {1, 2, 4}) {
    for (bool steal : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "cores " << cores << " steal "
                                        << steal);
      CostLedger ledgers[2];
      for (int threads : {1, 4}) {
        SetThreads(threads);
        HwContext hw(steal ? MachineConfig::Lx2MultiCoreStealing(cores)
                           : MachineConfig::Lx2MultiCore(cores));
        auto sim = MakeUniformSimulation(hw, p);
        sim->Run(3);
        const uint64_t d = SimulationDigest(*sim);
        if (first) {
          digest0 = d;
          first = false;
        }
        EXPECT_EQ(d, digest0);
        ledgers[threads == 1 ? 0 : 1] = hw.ledger();
      }
      for (int ph = 0; ph < kNumPhases; ++ph) {
        EXPECT_EQ(ledgers[0].PhaseCycles(static_cast<Phase>(ph)),
                  ledgers[1].PhaseCycles(static_cast<Phase>(ph)))
            << PhaseName(static_cast<Phase>(ph));
      }
      EXPECT_GT(ledgers[0].counters().gather_mopas, 0u);
      EXPECT_EQ(ledgers[0].counters().gather_mopas,
                ledgers[1].counters().gather_mopas);
      EXPECT_EQ(ledgers[0].counters().gather_mopa_valid_slots,
                ledgers[1].counters().gather_mopa_valid_slots);
    }
  }
  SetThreads(4);
}

}  // namespace
}  // namespace mpic
