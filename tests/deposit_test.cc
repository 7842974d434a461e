#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/deposit/deposit_baseline.h"
#include "src/deposit/deposit_mpu.h"
#include "src/deposit/deposit_rhocell.h"
#include "src/deposit/deposit_scalar.h"
#include "src/deposit/deposit_staging.h"
#include "src/grid/field_set.h"
#include "src/particles/species.h"

namespace mpic {
namespace {

constexpr double kTol = 1e-12;

struct TestWorld {
  TestWorld(int n_cells, int ppc, uint64_t seed, double u_scale = 0.05)
      : tile(0, 0, 0, n_cells, n_cells, n_cells),
        fields(MakeGeom(n_cells), 2) {
    geom = fields.geom;
    Rng rng(seed);
    for (int i = 0; i < n_cells * n_cells * n_cells * ppc; ++i) {
      Particle p;
      p.x = rng.Uniform(0.0, geom.LengthX());
      p.y = rng.Uniform(0.0, geom.LengthY());
      p.z = rng.Uniform(0.0, geom.LengthZ());
      p.ux = rng.NextGaussian() * u_scale * kSpeedOfLight;
      p.uy = rng.NextGaussian() * u_scale * kSpeedOfLight;
      p.uz = rng.NextGaussian() * u_scale * kSpeedOfLight;
      p.w = rng.Uniform(0.5, 2.0) * 1e10;
      tile.AddParticle(p);
    }
    tile.BuildGpma(geom, GpmaConfig{});
    params.geom = geom;
    params.charge = kElectronCharge;
  }

  static GridGeometry MakeGeom(int n_cells) {
    GridGeometry g;
    g.nx = g.ny = g.nz = n_cells;
    g.dx = g.dy = g.dz = 2.5e-7;
    return g;
  }

  GridGeometry geom;
  ParticleTile tile;
  FieldSet fields;
  DepositParams params;
};

// Runs the scalar reference into a fresh field set and returns (jx, jy, jz).
template <int Order>
std::tuple<std::vector<double>, std::vector<double>, std::vector<double>>
ReferenceJ(TestWorld& world) {
  HwContext hw;
  FieldSet ref(world.geom, 2);
  DepositScalarTile<Order>(hw, world.tile, world.params, ref);
  return {ref.jx.vec(), ref.jy.vec(), ref.jz.vec()};
}

template <int Order>
void ExpectMatchesReference(TestWorld& world, const FieldSet& got) {
  const auto [jx, jy, jz] = ReferenceJ<Order>(world);
  EXPECT_LT(RelMaxError(jx, got.jx.vec()), kTol);
  EXPECT_LT(RelMaxError(jy, got.jy.vec()), kTol);
  EXPECT_LT(RelMaxError(jz, got.jz.vec()), kTol);
}

// ---------------------------------------------------------------------------
// Staging
// ---------------------------------------------------------------------------

template <int Order>
void ExpectStagingAgrees() {
  TestWorld world(3, 7, 1234);
  HwContext hw;
  DepositScratch scalar_scratch, vpu_scratch;
  StageTileScalar<Order>(hw, world.tile, world.params, scalar_scratch);
  StageTileVpu<Order>(hw, world.tile, world.params, vpu_scratch);
  for (size_t i = 0; i < world.tile.soa().size(); ++i) {
    EXPECT_EQ(scalar_scratch.ix[i], vpu_scratch.ix[i]);
    EXPECT_EQ(scalar_scratch.iy[i], vpu_scratch.iy[i]);
    EXPECT_EQ(scalar_scratch.iz[i], vpu_scratch.iz[i]);
    for (int t = 0; t <= Order; ++t) {
      EXPECT_DOUBLE_EQ(scalar_scratch.sx[t][i], vpu_scratch.sx[t][i]);
      EXPECT_DOUBLE_EQ(scalar_scratch.sy[t][i], vpu_scratch.sy[t][i]);
      EXPECT_DOUBLE_EQ(scalar_scratch.sz_[t][i], vpu_scratch.sz_[t][i]);
    }
    EXPECT_DOUBLE_EQ(scalar_scratch.wqx[i], vpu_scratch.wqx[i]);
    EXPECT_DOUBLE_EQ(scalar_scratch.wqy[i], vpu_scratch.wqy[i]);
    EXPECT_DOUBLE_EQ(scalar_scratch.wqz[i], vpu_scratch.wqz[i]);
  }
}

TEST(Staging, ScalarAndVpuAgreeOrder1) { ExpectStagingAgrees<1>(); }
TEST(Staging, ScalarAndVpuAgreeOrder2) { ExpectStagingAgrees<2>(); }
TEST(Staging, ScalarAndVpuAgreeOrder3) { ExpectStagingAgrees<3>(); }

TEST(Staging, ShapeWeightsSumToOne) {
  TestWorld world(3, 5, 77);
  HwContext hw;
  DepositScratch scratch;
  StageTileVpu<3>(hw, world.tile, world.params, scratch);
  for (size_t i = 0; i < world.tile.soa().size(); ++i) {
    double sx = 0.0, sy = 0.0, sz = 0.0;
    for (int t = 0; t < 4; ++t) {
      sx += scratch.sx[t][i];
      sy += scratch.sy[t][i];
      sz += scratch.sz_[t][i];
    }
    EXPECT_NEAR(sx, 1.0, 1e-12);
    EXPECT_NEAR(sy, 1.0, 1e-12);
    EXPECT_NEAR(sz, 1.0, 1e-12);
  }
}

TEST(Staging, PhasesChargedToPreproc) {
  TestWorld world(3, 5, 78);
  HwContext hw;
  DepositScratch scratch;
  StageTileVpu<1>(hw, world.tile, world.params, scratch);
  EXPECT_GT(hw.ledger().PhaseCycles(Phase::kPreproc), 0.0);
  EXPECT_DOUBLE_EQ(hw.ledger().PhaseCycles(Phase::kCompute), 0.0);
}

// ---------------------------------------------------------------------------
// Charge-current consistency: the deposited J integrates to sum(q v w)/V_cell.
// ---------------------------------------------------------------------------

template <int Order>
void ExpectCurrentIntegral() {
  TestWorld world(4, 4, 555);
  HwContext hw;
  DepositScalarTile<Order>(hw, world.tile, world.params, world.fields);
  world.fields.jx.FoldGuardsPeriodic();
  double expected = 0.0;
  const ParticleSoA& soa = world.tile.soa();
  const double inv_c2 = 1.0 / (kSpeedOfLight * kSpeedOfLight);
  for (size_t i = 0; i < soa.size(); ++i) {
    const double u2 =
        soa.ux[i] * soa.ux[i] + soa.uy[i] * soa.uy[i] + soa.uz[i] * soa.uz[i];
    const double gamma = std::sqrt(1.0 + u2 * inv_c2);
    expected += kElectronCharge * soa.w[i] * soa.ux[i] / gamma;
  }
  expected /= world.geom.dx * world.geom.dy * world.geom.dz;
  // Shape weights sum to 1 per particle, so the grid total equals the particle
  // total exactly (up to rounding).
  const double got = world.fields.jx.InteriorSumUnique();
  EXPECT_NEAR(got, expected, std::fabs(expected) * 1e-10 + 1e-20);
}

TEST(DepositScalar, CurrentIntegralOrder1) { ExpectCurrentIntegral<1>(); }
TEST(DepositScalar, CurrentIntegralOrder2) { ExpectCurrentIntegral<2>(); }
TEST(DepositScalar, CurrentIntegralOrder3) { ExpectCurrentIntegral<3>(); }

TEST(DepositScalar, SingleParticleCicWeights) {
  // One particle at a known sub-cell position: the 8 nodal currents must be
  // the tensor-product CIC weights.
  GridGeometry g = TestWorld::MakeGeom(4);
  ParticleTile tile(0, 0, 0, 4, 4, 4);
  Particle p;
  p.x = 1.25 * g.dx;
  p.y = 2.5 * g.dy;
  p.z = 0.75 * g.dz;
  p.ux = 0.1 * kSpeedOfLight;
  p.w = 1e10;
  tile.AddParticle(p);
  tile.BuildGpma(g, GpmaConfig{});
  DepositParams params;
  params.geom = g;
  params.charge = kElectronCharge;
  FieldSet fields(g, 2);
  HwContext hw;
  DepositScalarTile<1>(hw, tile, params, fields);
  const double gamma = std::sqrt(1.0 + 0.01);
  const double wq = kElectronCharge * 1e10 * (0.1 * kSpeedOfLight / gamma) /
                    (g.dx * g.dy * g.dz);
  EXPECT_NEAR(fields.jx.At(1, 2, 0), wq * 0.75 * 0.5 * 0.25, std::fabs(wq) * 1e-14);
  EXPECT_NEAR(fields.jx.At(2, 2, 1), wq * 0.25 * 0.5 * 0.75, std::fabs(wq) * 1e-14);
  EXPECT_NEAR(fields.jx.At(2, 3, 1), wq * 0.25 * 0.5 * 0.75, std::fabs(wq) * 1e-14);
}

// ---------------------------------------------------------------------------
// Variant equivalence: every kernel reproduces the scalar reference.
// ---------------------------------------------------------------------------

class BaselineEquivalence
    : public ::testing::TestWithParam<std::tuple<int, bool, int>> {};

TEST_P(BaselineEquivalence, MatchesScalarReference) {
  const auto [order, sorted, ppc] = GetParam();
  TestWorld world(4, ppc, 999 + ppc);
  HwContext hw;
  DepositScratch scratch;
  switch (order) {
    case 1: {
      StageTileScalar<1>(hw, world.tile, world.params, scratch);
      DepositBaselineTile<1>(hw, world.tile, world.params, scratch, world.fields,
                             sorted);
      ExpectMatchesReference<1>(world, world.fields);
      break;
    }
    case 2: {
      StageTileScalar<2>(hw, world.tile, world.params, scratch);
      DepositBaselineTile<2>(hw, world.tile, world.params, scratch, world.fields,
                             sorted);
      ExpectMatchesReference<2>(world, world.fields);
      break;
    }
    default: {
      StageTileScalar<3>(hw, world.tile, world.params, scratch);
      DepositBaselineTile<3>(hw, world.tile, world.params, scratch, world.fields,
                             sorted);
      ExpectMatchesReference<3>(world, world.fields);
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BaselineEquivalence,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Bool(),
                                            ::testing::Values(1, 4, 9)));

template <int Order>
void RunRhocellVariant(bool hand_tuned, bool sorted, int ppc, uint64_t seed) {
  TestWorld world(4, ppc, seed);
  HwContext hw;
  DepositScratch scratch;
  RhocellBuffer rhocell(world.tile.num_cells(), Order);
  if (hand_tuned) {
    StageTileVpu<Order>(hw, world.tile, world.params, scratch);
    DepositRhocellVpu<Order>(hw, world.tile, world.params, scratch, rhocell, sorted);
  } else {
    StageTileScalar<Order>(hw, world.tile, world.params, scratch);
    DepositRhocellAutoVec<Order>(hw, world.tile, world.params, scratch, rhocell,
                                 sorted);
  }
  ReduceRhocellToGrid<Order>(hw, world.tile, rhocell, world.fields);
  ExpectMatchesReference<Order>(world, world.fields);
}

class RhocellEquivalence
    : public ::testing::TestWithParam<std::tuple<int, bool, bool, int>> {};

TEST_P(RhocellEquivalence, MatchesScalarReference) {
  const auto [order, hand_tuned, sorted, ppc] = GetParam();
  if (order == 1) {
    RunRhocellVariant<1>(hand_tuned, sorted, ppc, 31337);
  } else {
    RunRhocellVariant<3>(hand_tuned, sorted, ppc, 31337);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RhocellEquivalence,
                         ::testing::Combine(::testing::Values(1, 3),
                                            ::testing::Bool(), ::testing::Bool(),
                                            ::testing::Values(1, 4, 9)));

template <int Order>
void RunMpuVariant(MpuScheduling scheduling, int ppc, uint64_t seed) {
  TestWorld world(4, ppc, seed);
  HwContext hw;
  DepositScratch scratch;
  RhocellBuffer rhocell(world.tile.num_cells(), Order);
  StageTileVpu<Order>(hw, world.tile, world.params, scratch);
  DepositMpu<Order>(hw, world.tile, world.params, scratch, rhocell, scheduling);
  ReduceRhocellToGrid<Order>(hw, world.tile, rhocell, world.fields);
  EXPECT_GT(hw.ledger().counters().mopas, 0u);
  ExpectMatchesReference<Order>(world, world.fields);
}

class MpuEquivalence : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MpuEquivalence, MatchesScalarReference) {
  const auto [order, sched, ppc] = GetParam();
  const MpuScheduling scheduling =
      sched == 0 ? MpuScheduling::kCellResident : MpuScheduling::kPairwise;
  if (order == 1) {
    RunMpuVariant<1>(scheduling, ppc, 4242);
  } else {
    RunMpuVariant<3>(scheduling, ppc, 4242);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MpuEquivalence,
                         ::testing::Combine(::testing::Values(1, 3),
                                            ::testing::Values(0, 1),
                                            ::testing::Values(1, 2, 5, 16)));

// Exact MOPA and valid-slot counts of the component-packed layout
// (deposit_mpu.h), in both schedulings.
const MpuScheduling kSchedulings[] = {MpuScheduling::kCellResident,
                                      MpuScheduling::kPairwise};

TEST(DepositMpu, QspPacksFourMopasAnd192SlotsPerParticle) {
  TestWorld world(2, 8, 809);
  for (MpuScheduling scheduling : kSchedulings) {
    SCOPED_TRACE(scheduling == MpuScheduling::kCellResident ? "cell-resident"
                                                            : "pairwise");
    HwContext hw;
    DepositScratch scratch;
    RhocellBuffer rhocell(world.tile.num_cells(), 3);
    StageTileVpu<3>(hw, world.tile, world.params, scratch);
    const LedgerCounters before = hw.ledger().counters();
    DepositMpu<3>(hw, world.tile, world.params, scratch, rhocell, scheduling);
    const auto n = static_cast<uint64_t>(world.tile.num_live());
    EXPECT_EQ(hw.ledger().counters().mopas - before.mopas, 4 * n);
    EXPECT_EQ(hw.ledger().counters().mopa_valid_slots - before.mopa_valid_slots,
              192 * n);
  }
}

TEST(DepositMpu, CicPacksTwoMopasPerPairAnd24SlotsPerParticle) {
  TestWorld world(2, 8, 808);
  const auto n = static_cast<uint64_t>(world.tile.num_live());
  // Cell-resident pairs particles within a GPMA bin, pairwise within each
  // slot-order batch of kVpuLanes live particles.
  uint64_t bin_pairs = 0;
  bool odd_bin = false;
  const Gpma& gpma = world.tile.gpma();
  for (int cell = 0; cell < gpma.num_cells(); ++cell) {
    const auto len = static_cast<uint64_t>(gpma.BinLen(cell));
    bin_pairs += (len + 1) / 2;
    odd_bin = odd_bin || len % 2 == 1;
  }
  ASSERT_TRUE(odd_bin);  // the singleton-pair path is exercised
  const uint64_t tail = n % kVpuLanes;
  const uint64_t batch_pairs = n / kVpuLanes * (kVpuLanes / 2) + (tail + 1) / 2;
  for (MpuScheduling scheduling : kSchedulings) {
    const bool resident = scheduling == MpuScheduling::kCellResident;
    SCOPED_TRACE(resident ? "cell-resident" : "pairwise");
    HwContext hw;
    DepositScratch scratch;
    RhocellBuffer rhocell(world.tile.num_cells(), 1);
    StageTileVpu<1>(hw, world.tile, world.params, scratch);
    const LedgerCounters before = hw.ledger().counters();
    DepositMpu<1>(hw, world.tile, world.params, scratch, rhocell, scheduling);
    EXPECT_EQ(hw.ledger().counters().mopas - before.mopas,
              2 * (resident ? bin_pairs : batch_pairs));
    EXPECT_EQ(hw.ledger().counters().mopa_valid_slots - before.mopa_valid_slots,
              24 * n);
  }
}

// The MPU drain writes the rhocell layout k = a + (Order+1)·m directly: every
// cell block matches the VPU rhocell kernel's before any reduction.
template <int Order>
void ExpectRhocellBlocksMatchVpu(MpuScheduling scheduling, int ppc) {
  TestWorld world(4, ppc, 5150 + ppc);
  HwContext hw;
  DepositScratch scratch;
  StageTileVpu<Order>(hw, world.tile, world.params, scratch);
  RhocellBuffer vpu(world.tile.num_cells(), Order);
  DepositRhocellVpu<Order>(hw, world.tile, world.params, scratch, vpu, true);
  RhocellBuffer mpu(world.tile.num_cells(), Order);
  DepositMpu<Order>(hw, world.tile, world.params, scratch, mpu, scheduling);
  const size_t stride = static_cast<size_t>(vpu.stride());
  int nonzero_blocks = 0;
  for (int cell = 0; cell < vpu.num_cells(); ++cell) {
    const double* want[3] = {vpu.CellJx(cell), vpu.CellJy(cell), vpu.CellJz(cell)};
    const double* got[3] = {mpu.CellJx(cell), mpu.CellJy(cell), mpu.CellJz(cell)};
    for (int comp = 0; comp < 3; ++comp) {
      const std::vector<double> w(want[comp], want[comp] + stride);
      const std::vector<double> g(got[comp], got[comp] + stride);
      nonzero_blocks +=
          std::any_of(w.begin(), w.end(), [](double v) { return v != 0.0; });
      EXPECT_LE(RelMaxError(w, g), 1e-13) << "cell " << cell << " comp " << comp;
    }
  }
  EXPECT_GT(nonzero_blocks, 0);
}

class MpuRhocellBlocks
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MpuRhocellBlocks, MatchVpuRhocellBeforeReduce) {
  const auto [order, sched, ppc] = GetParam();
  const MpuScheduling scheduling = kSchedulings[sched];
  if (order == 1) {
    ExpectRhocellBlocksMatchVpu<1>(scheduling, ppc);
  } else {
    ExpectRhocellBlocksMatchVpu<3>(scheduling, ppc);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MpuRhocellBlocks,
                         ::testing::Combine(::testing::Values(1, 3),
                                            ::testing::Values(0, 1),
                                            ::testing::Values(1, 2, 5, 16)));

TEST(Rhocell, BufferLayout) {
  RhocellBuffer rc(10, 3);
  EXPECT_EQ(rc.stride(), 64);
  EXPECT_EQ(rc.CellJy(3) - rc.jy().data(), 3 * 64);
  rc.CellJx(9)[63] = 1.0;
  rc.Zero();
  EXPECT_DOUBLE_EQ(rc.CellJx(9)[63], 0.0);
}

TEST(Rhocell, ReduceZeroesBuffer) {
  TestWorld world(3, 3, 2020);
  HwContext hw;
  DepositScratch scratch;
  RhocellBuffer rhocell(world.tile.num_cells(), 1);
  StageTileVpu<1>(hw, world.tile, world.params, scratch);
  DepositRhocellVpu<1>(hw, world.tile, world.params, scratch, rhocell, true);
  ReduceRhocellToGrid<1>(hw, world.tile, rhocell, world.fields);
  for (double v : rhocell.jx()) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(Deposit, EmptyTileDepositsNothing) {
  GridGeometry g = TestWorld::MakeGeom(4);
  ParticleTile tile(0, 0, 0, 4, 4, 4);
  tile.BuildGpma(g, GpmaConfig{});
  DepositParams params;
  params.geom = g;
  params.charge = kElectronCharge;
  FieldSet fields(g, 2);
  HwContext hw;
  DepositScratch scratch;
  StageTileScalar<1>(hw, tile, params, scratch);
  DepositBaselineTile<1>(hw, tile, params, scratch, fields, false);
  EXPECT_DOUBLE_EQ(Sum(fields.jx.vec()), 0.0);
}

TEST(Deposit, DeadSlotsAreSkipped) {
  TestWorld world(3, 4, 606);
  // Remove a third of the particles, then re-bin.
  Rng rng(2);
  for (int32_t pid = 0; pid < world.tile.num_slots(); ++pid) {
    if (rng.Bernoulli(0.33)) {
      world.tile.RemoveParticle(pid);
    }
  }
  world.tile.BuildGpma(world.geom, GpmaConfig{});
  HwContext hw;
  DepositScratch scratch;
  StageTileScalar<1>(hw, world.tile, world.params, scratch);
  // Unsorted (slot order) and sorted (GPMA order) must both skip dead slots
  // and produce the same J as the scalar reference on the live set.
  DepositBaselineTile<1>(hw, world.tile, world.params, scratch, world.fields,
                         false);
  ExpectMatchesReference<1>(world, world.fields);
}

TEST(CanonicalFlops, CountsAreStable) {
  // Pinned values: changing the canonical count silently rescales every
  // efficiency number in EXPERIMENTS.md.
  EXPECT_DOUBLE_EQ(CanonicalFlopsPerParticle(1), 12 + 3 + 17 + 4 + 8 * 7);
  EXPECT_DOUBLE_EQ(CanonicalFlopsPerParticle(2), 12 + 15 + 17 + 9 + 27 * 7);
  EXPECT_DOUBLE_EQ(CanonicalFlopsPerParticle(3), 12 + 27 + 17 + 16 + 64 * 7);
}

}  // namespace
}  // namespace mpic
