// Tests for the MPU Esirkepov kernel (esirkepov_mpu.h): equivalence with the
// scalar-reference combine on both schedulings, the Gauss-residual / digest
// matrix across core counts, occupancy-counter determinism, and MopaZero
// semantics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "src/common/rng.h"
#include "src/core/diagnostics.h"
#include "src/core/workloads.h"
#include "src/deposit/esirkepov_mpu.h"
#include "src/particles/species.h"

namespace mpic {
namespace {

GridGeometry MakeGeom(int n) {
  GridGeometry g;
  g.nx = g.ny = g.nz = n;
  g.dx = g.dy = g.dz = 1.0e-6;
  return g;
}

struct MovedWorld {
  MovedWorld(int n, int count, double max_cell_step, uint64_t seed)
      : geom(MakeGeom(n)), tile(0, 0, 0, n, n, n) {
    Rng rng(seed);
    for (int i = 0; i < count; ++i) {
      Particle p;
      // Keep two cells away from the boundary so no support needs wrapping.
      p.x = rng.Uniform(2.0, n - 2.0) * geom.dx;
      p.y = rng.Uniform(2.0, n - 2.0) * geom.dy;
      p.z = rng.Uniform(2.0, n - 2.0) * geom.dz;
      p.w = rng.Uniform(0.5, 2.0) * 1e8;
      tile.AddParticle(p);
    }
    x_old = tile.soa().x;
    y_old = tile.soa().y;
    z_old = tile.soa().z;
    for (size_t i = 0; i < tile.soa().size(); ++i) {
      tile.soa().x[i] += rng.Uniform(-1.0, 1.0) * max_cell_step * geom.dx;
      tile.soa().y[i] += rng.Uniform(-1.0, 1.0) * max_cell_step * geom.dy;
      tile.soa().z[i] += rng.Uniform(-1.0, 1.0) * max_cell_step * geom.dz;
    }
    // Bins reflect the post-displacement cells, as at pipeline deposit time.
    tile.BuildGpma(geom, GpmaConfig{});
  }

  DepositParams Params(double dt) const {
    DepositParams dp;
    dp.geom = geom;
    dp.charge = kElectronCharge;
    dp.dt = dt;
    return dp;
  }

  void FillOldLanes() {
    tile.soa().xo = x_old;
    tile.soa().yo = y_old;
    tile.soa().zo = z_old;
  }

  GridGeometry geom;
  ParticleTile tile;
  std::vector<double> x_old, y_old, z_old;
};

// Stage -> MPU combine -> reduce into a fresh FieldSet.
template <int Order>
void RunMpuPath(HwContext& hw, MovedWorld& world, const DepositParams& dp,
                MpuScheduling scheduling, FieldSet& fields) {
  world.FillOldLanes();
  EsirkepovScratch scratch;
  TileCurrent tile_j;
  tile_j.Resize(world.tile, Order);
  StageEsirkepovTile<Order>(hw, world.tile, dp, /*vpu=*/true, scratch);
  DepositEsirkepovMpuTile<Order>(hw, world.tile, dp, scheduling, scratch,
                                 tile_j);
  ReduceEsirkepovToGrid(hw, tile_j, fields);
}

// The MPU combine re-associates the plane products (tile fma, prefix-then-
// scale) so it matches the scalar reference to rounding, not bitwise.
template <int Order>
void ExpectMpuMatchesReference(MpuScheduling scheduling, double max_cell_step,
                               uint64_t seed) {
  MovedWorld world(10, 200, max_cell_step, seed);
  const double dt = 1.0e-15;
  const DepositParams dp = world.Params(dt);
  HwContext hw;
  FieldSet ref(world.geom, 2);
  DepositEsirkepov<Order>(hw, world.tile, world.x_old, world.y_old,
                          world.z_old, dp, ref);
  FieldSet got(world.geom, 2);
  RunMpuPath<Order>(hw, world, dp, scheduling, got);

  double j_scale = 0.0;
  for (const FieldArray* f : {&ref.jx, &ref.jy, &ref.jz}) {
    for (double v : f->vec()) {
      j_scale = std::max(j_scale, std::fabs(v));
    }
  }
  ASSERT_GT(j_scale, 0.0);
  const FieldArray* refs[3] = {&ref.jx, &ref.jy, &ref.jz};
  const FieldArray* gots[3] = {&got.jx, &got.jy, &got.jz};
  for (int comp = 0; comp < 3; ++comp) {
    for (size_t i = 0; i < refs[comp]->vec().size(); ++i) {
      ASSERT_NEAR(gots[comp]->vec()[i], refs[comp]->vec()[i], j_scale * 1e-12)
          << "component " << comp << " index " << i << " order " << Order;
    }
  }
}

class MpuVsReference : public ::testing::TestWithParam<double> {};

TEST_P(MpuVsReference, CellResidentOrder1) {
  ExpectMpuMatchesReference<1>(MpuScheduling::kCellResident, GetParam(), 31);
}
TEST_P(MpuVsReference, CellResidentOrder2) {
  ExpectMpuMatchesReference<2>(MpuScheduling::kCellResident, GetParam(), 32);
}
TEST_P(MpuVsReference, CellResidentOrder3) {
  ExpectMpuMatchesReference<3>(MpuScheduling::kCellResident, GetParam(), 33);
}
TEST_P(MpuVsReference, PairwiseOrder1) {
  ExpectMpuMatchesReference<1>(MpuScheduling::kPairwise, GetParam(), 34);
}
TEST_P(MpuVsReference, PairwiseOrder2) {
  ExpectMpuMatchesReference<2>(MpuScheduling::kPairwise, GetParam(), 35);
}
TEST_P(MpuVsReference, PairwiseOrder3) {
  ExpectMpuMatchesReference<3>(MpuScheduling::kPairwise, GetParam(), 36);
}

INSTANTIATE_TEST_SUITE_P(StepSizes, MpuVsReference,
                         ::testing::Values(0.05, 0.9));

// ---- Whole-simulation matrix on the MPU variant -----------------------------

struct SimResult {
  std::unique_ptr<HwContext> hw;
  std::unique_ptr<Simulation> sim;
  double residual = 0.0;
};

SimResult RunMpuEsirkepovSim(int order, int cores, int steps) {
#ifdef _OPENMP
  omp_set_num_threads(cores > 1 ? 4 : 1);
#endif
  SimResult r;
  r.hw = std::make_unique<HwContext>(MachineConfig::Lx2MultiCore(cores));
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.tile = 4;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.u_th = 0.02;
  p.order = order;
  p.variant = DepositVariant::kFullOpt;
  p.scheme = CurrentScheme::kEsirkepov;
  r.sim = MakeUniformSimulation(*r.hw, p);

  const GridGeometry& g = r.sim->fields().geom;
  const FieldArray rho0 = DepositChargeDensity(*r.sim);
  FieldArray res0(g.nx, g.ny, g.nz, 2);
  GaussResidualField(r.sim->fields(), rho0, &res0);
  r.sim->Run(steps);
  const FieldArray rho1 = DepositChargeDensity(*r.sim);
  FieldArray res1(g.nx, g.ny, g.nz, 2);
  GaussResidualField(r.sim->fields(), rho1, &res1);
  r.residual = MaxResidualChange(res1, res0, GaussResidualScale(rho0));
  return r;
}

void ExpectFieldsBitIdentical(const FieldSet& a, const FieldSet& b) {
  for (auto pick : {&FieldSet::ex, &FieldSet::ey, &FieldSet::ez, &FieldSet::jx,
                    &FieldSet::jy, &FieldSet::jz}) {
    const FieldArray& fa = a.*pick;
    const FieldArray& fb = b.*pick;
    ASSERT_EQ(fa.vec().size(), fb.vec().size());
    EXPECT_EQ(std::memcmp(fa.vec().data(), fb.vec().data(),
                          fa.vec().size() * sizeof(double)),
              0);
  }
}

class MpuEsirkepovMatrix : public ::testing::TestWithParam<int> {};

// Gauss residual at rounding level and bit-identical physics across modeled
// core counts 1/2/4, per order.
TEST_P(MpuEsirkepovMatrix, ResidualAndInvariance) {
  const int order = GetParam();
  const int steps = 3;
  const SimResult base = RunMpuEsirkepovSim(order, 1, steps);
  EXPECT_LT(base.residual, 1e-8) << "order " << order;
  for (int cores : {2, 4}) {
    const SimResult other = RunMpuEsirkepovSim(order, cores, steps);
    EXPECT_LT(other.residual, 1e-8) << "order " << order << " cores " << cores;
    ExpectFieldsBitIdentical(base.sim->fields(), other.sim->fields());
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, MpuEsirkepovMatrix, ::testing::Values(1, 2, 3));

// The occupancy counters are part of the deterministic ledger contract:
// identical runs agree exactly, and worker counters sum to the same totals on
// any core count.
TEST(MpuEsirkepovOccupancy, CounterDeterminism) {
  const SimResult a = RunMpuEsirkepovSim(1, 1, 3);
  const SimResult b = RunMpuEsirkepovSim(1, 1, 3);
  const SimResult c = RunMpuEsirkepovSim(1, 4, 3);
  const LedgerCounters& ca = a.hw->ledger().counters();
  const LedgerCounters& cb = b.hw->ledger().counters();
  const LedgerCounters& cc = c.hw->ledger().counters();
  EXPECT_EQ(ca.mopas, cb.mopas);
  EXPECT_EQ(ca.mopa_valid_slots, cb.mopa_valid_slots);
  EXPECT_EQ(ca.mopas, cc.mopas);
  EXPECT_EQ(ca.mopa_valid_slots, cc.mopa_valid_slots);
  ASSERT_GT(ca.mopas, 0u);
  const double occ = static_cast<double>(ca.mopa_valid_slots) /
                     (64.0 * static_cast<double>(ca.mopas));
  EXPECT_GT(occ, 0.0);
  EXPECT_LT(occ, 1.0);
}

// MopaZero overwrites the tile with the plain outer product (no accumulate)
// and books the same issue cost and occupancy accounting as Mopa.
TEST(MopaZero, OverwritesAndCounts) {
  HwContext hw;
  Vec8 a;
  Vec8 b;
  for (int i = 0; i < kVpuLanes; ++i) {
    a[i] = 1.0 + i;
    b[i] = 2.0 - 0.25 * i;
  }
  MpuTileReg tile;
  for (int r = 0; r < kMpuTile; ++r) {
    for (int c = 0; c < kMpuTile; ++c) {
      tile.At(r, c) = 999.0;  // garbage a zeroing MOPA must ignore
    }
  }
  const uint64_t mopas0 = hw.ledger().counters().mopas;
  const uint64_t valid0 = hw.ledger().counters().mopa_valid_slots;
  hw.MopaZero(tile, a, b, /*valid_slots=*/10);
  for (int r = 0; r < kMpuTile; ++r) {
    for (int c = 0; c < kMpuTile; ++c) {
      ASSERT_EQ(tile.At(r, c), a[r] * b[c]);
    }
  }
  EXPECT_EQ(hw.ledger().counters().mopas, mopas0 + 1);
  EXPECT_EQ(hw.ledger().counters().mopa_valid_slots, valid0 + 10);
  hw.Mopa(tile, a, b, /*valid_slots=*/54);
  for (int r = 0; r < kMpuTile; ++r) {
    for (int c = 0; c < kMpuTile; ++c) {
      ASSERT_EQ(tile.At(r, c), a[r] * b[c] + a[r] * b[c]);
    }
  }
  EXPECT_EQ(hw.ledger().counters().mopas, mopas0 + 2);
  EXPECT_EQ(hw.ledger().counters().mopa_valid_slots, valid0 + 64);
}

}  // namespace
}  // namespace mpic
