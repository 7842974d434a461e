// Fused step-pipeline tests: a multi-core run, which fans out every tile
// stage and the colored reduce, must be bit-identical to the 1-core run,
// which takes the serial deposit and the serial color-major reduce, on every
// workload, variant, order, species count, and thread count; the
// halo-disjoint reduction coloring must be a valid schedule; and the modeled
// ledger must be deterministic across runs now that every modeled array
// (including the gather scratch) is registered with the address map.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "src/core/simulation.h"
#include "src/core/workloads.h"
#include "src/deposit/rhocell.h"
#include "src/hw/parallel_for.h"

namespace mpic {
namespace {

void UseManyThreads() {
#ifdef _OPENMP
  omp_set_num_threads(4);
#endif
}

void ExpectFieldsBitIdentical(const FieldSet& a, const FieldSet& b) {
  auto cmp = [](const FieldArray& fa, const FieldArray& fb, const char* name) {
    ASSERT_EQ(fa.vec().size(), fb.vec().size()) << name;
    EXPECT_EQ(std::memcmp(fa.vec().data(), fb.vec().data(),
                          fa.vec().size() * sizeof(double)),
              0)
        << name << " differs bitwise";
  };
  cmp(a.ex, b.ex, "ex");
  cmp(a.ey, b.ey, "ey");
  cmp(a.ez, b.ez, "ez");
  cmp(a.bx, b.bx, "bx");
  cmp(a.by, b.by, "by");
  cmp(a.bz, b.bz, "bz");
  cmp(a.jx, b.jx, "jx");
  cmp(a.jy, b.jy, "jy");
  cmp(a.jz, b.jz, "jz");
}

void ExpectParticlesBitIdentical(const TileSet& a, const TileSet& b) {
  ASSERT_EQ(a.num_tiles(), b.num_tiles());
  for (int t = 0; t < a.num_tiles(); ++t) {
    const ParticleTile& ta = a.tile(t);
    const ParticleTile& tb = b.tile(t);
    ASSERT_EQ(ta.num_slots(), tb.num_slots()) << "tile " << t;
    ASSERT_EQ(ta.num_live(), tb.num_live()) << "tile " << t;
    const ParticleSoA& sa = ta.soa();
    const ParticleSoA& sb = tb.soa();
    for (int32_t pid = 0; pid < ta.num_slots(); ++pid) {
      ASSERT_EQ(ta.IsLive(pid), tb.IsLive(pid)) << "tile " << t << " pid " << pid;
      if (!ta.IsLive(pid)) {
        continue;
      }
      const auto i = static_cast<size_t>(pid);
      EXPECT_EQ(sa.x[i], sb.x[i]);
      EXPECT_EQ(sa.y[i], sb.y[i]);
      EXPECT_EQ(sa.z[i], sb.z[i]);
      EXPECT_EQ(sa.ux[i], sb.ux[i]);
      EXPECT_EQ(sa.uy[i], sb.uy[i]);
      EXPECT_EQ(sa.uz[i], sb.uz[i]);
      EXPECT_EQ(sa.w[i], sb.w[i]);
    }
  }
}

void ExpectSimsBitIdentical(Simulation& a, Simulation& b) {
  ExpectFieldsBitIdentical(a.fields(), b.fields());
  ASSERT_EQ(a.num_species(), b.num_species());
  for (int sid = 0; sid < a.num_species(); ++sid) {
    ExpectParticlesBitIdentical(a.block(sid).tiles, b.block(sid).tiles);
  }
}

// ---- Multi-core vs. 1-core bit identity --------------------------------------

// Builds the same simulation on a 1-core machine and on `cores` cores, runs
// both for `steps` steps, and compares them bitwise. Every fused stage must
// be tile-private for the fan-out to reproduce the serial run.
template <typename MakeSim>
void ExpectMatchesSerialRun(int cores, int steps, MakeSim make) {
  HwContext serial_hw(MachineConfig::Lx2MultiCore(1));
  auto serial = make(serial_hw);
  serial->Run(steps);
  HwContext par_hw(MachineConfig::Lx2MultiCore(cores));
  auto parallel = make(par_hw);
  parallel->Run(steps);

  ExpectSimsBitIdentical(*serial, *parallel);
  // Both runs execute the same work: instruction counters match too.
  EXPECT_EQ(serial_hw.ledger().counters().mopas,
            par_hw.ledger().counters().mopas);
  EXPECT_EQ(serial_hw.ledger().counters().scatters,
            par_hw.ledger().counters().scatters);
  const std::vector<SpeciesStepStats>& ss = serial->last_sim_stats().species;
  const std::vector<SpeciesStepStats>& ps = parallel->last_sim_stats().species;
  ASSERT_EQ(ss.size(), ps.size());
  for (size_t i = 0; i < ss.size(); ++i) {
    EXPECT_EQ(ss[i].pushed, ps[i].pushed) << "species " << i;
  }
}

class CoreCountBitIdentity : public ::testing::TestWithParam<int> {};

TEST_P(CoreCountBitIdentity, UniformEveryVariantAndOrder) {
  UseManyThreads();
  struct Combo {
    DepositVariant variant;
    int order;
  };
  std::vector<Combo> combos;
  for (DepositVariant v :
       {DepositVariant::kScalar, DepositVariant::kBaseline,
        DepositVariant::kBaselineIncrSort, DepositVariant::kRhocell,
        DepositVariant::kRhocellIncrSort, DepositVariant::kRhocellIncrSortVpu,
        DepositVariant::kMatrixOnly, DepositVariant::kHybridNoSort,
        DepositVariant::kHybridGlobalSort, DepositVariant::kFullOpt}) {
    const VariantTraits traits = TraitsOf(v);
    for (int order : {1, 2, 3}) {
      if (order == 2 && (traits.uses_rhocell || traits.uses_mpu)) {
        continue;  // rhocell/MPU kernels are odd-order only
      }
      combos.push_back({v, order});
    }
  }
  for (const Combo& c : combos) {
    SCOPED_TRACE(std::string(VariantName(c.variant)) + " order " +
                 std::to_string(c.order));
    UniformWorkloadParams p;
    p.nx = p.ny = p.nz = 8;
    p.ppc_x = p.ppc_y = p.ppc_z = 2;
    p.tile = 4;
    p.variant = c.variant;
    p.order = c.order;
    ExpectMatchesSerialRun(GetParam(), 4, [&](HwContext& hw) {
      return MakeUniformSimulation(hw, p);
    });
  }
}

TEST_P(CoreCountBitIdentity, TwoStream) {
  UseManyThreads();
  TwoStreamParams p;
  p.variant = DepositVariant::kFullOpt;
  ExpectMatchesSerialRun(GetParam(), 5, [&](HwContext& hw) {
    return MakeTwoStreamSimulation(hw, p);
  });
}

TEST_P(CoreCountBitIdentity, LwfaMovingWindowWithIons) {
  UseManyThreads();
  LwfaWorkloadParams p;
  p.nx = p.ny = 8;
  p.nz = 32;
  p.tile = 4;
  p.tile_z = 8;
  p.variant = DepositVariant::kFullOpt;
  p.with_ions = true;
  ExpectMatchesSerialRun(GetParam(), 8, [&](HwContext& hw) {
    return MakeLwfaSimulation(hw, p);
  });
}

TEST_P(CoreCountBitIdentity, MultiSpeciesMixedEngineOverrides) {
  UseManyThreads();
  // Electrons on the full MPU pipeline at CIC; heavy ions on the unsorted
  // hybrid at QSP — exercises per-species order dispatch in every stage.
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.tile = 4;
  UniformSpeciesParams electrons;
  electrons.species = Species::Electron();
  electrons.ppc_x = electrons.ppc_y = electrons.ppc_z = 2;
  UniformSpeciesParams ions;
  ions.species = Species::Proton();
  ions.ppc_x = ions.ppc_y = ions.ppc_z = 1;
  ions.variant = DepositVariant::kHybridNoSort;
  ions.order = 3;
  p.species_params = {electrons, ions};
  ExpectMatchesSerialRun(GetParam(), 5, [&](HwContext& hw) {
    return MakeUniformSimulation(hw, p);
  });
}

TEST_P(CoreCountBitIdentity, EsirkepovUniformEveryOrder) {
  UseManyThreads();
  // The charge-conserving scheme runs through the same per-tile stages:
  // capture, push, wrap (with old-lane shift), scan, staged deposit into the
  // per-tile TileCurrent, colored reduce. Bit identity must hold on every
  // order, including TSC (order 2), which only this scheme supports on the
  // kFullOpt machinery.
  for (int order : {1, 2, 3}) {
    SCOPED_TRACE(order);
    UniformWorkloadParams p;
    p.nx = p.ny = p.nz = 8;
    p.ppc_x = p.ppc_y = p.ppc_z = 2;
    p.tile = 4;
    p.variant = DepositVariant::kFullOpt;
    p.order = order;
    p.scheme = CurrentScheme::kEsirkepov;
    ExpectMatchesSerialRun(GetParam(), 4, [&](HwContext& hw) {
      return MakeUniformSimulation(hw, p);
    });
  }
}

TEST_P(CoreCountBitIdentity, EsirkepovLwfaMovingWindowWithIons) {
  UseManyThreads();
  // Moving window + Esirkepov: window drops remove charge mid-step and the
  // tile-parallel injection adds it back after the deposit — the old-position
  // lanes must survive both, and the serial and fanned-out runs must still
  // agree bitwise.
  LwfaWorkloadParams p;
  p.nx = p.ny = 8;
  p.nz = 32;
  p.tile = 4;
  p.tile_z = 8;
  p.variant = DepositVariant::kFullOpt;
  p.scheme = CurrentScheme::kEsirkepov;
  p.with_ions = true;
  ExpectMatchesSerialRun(GetParam(), 8, [&](HwContext& hw) {
    return MakeLwfaSimulation(hw, p);
  });
}

INSTANTIATE_TEST_SUITE_P(Cores, CoreCountBitIdentity, ::testing::Values(2, 4));

// Esirkepov across core counts: the colored reduce of the per-tile J scratch
// (wider halo than rhocell) must be schedule-independent on its own.
TEST(FusedPipeline, EsirkepovBitIdenticalAcrossCoreCounts) {
  UseManyThreads();
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.tile = 4;
  p.order = 3;
  p.variant = DepositVariant::kFullOpt;
  p.scheme = CurrentScheme::kEsirkepov;

  HwContext serial_hw;
  auto serial = MakeUniformSimulation(serial_hw, p);
  serial->Run(5);
  for (int cores : {2, 3, 4}) {
    SCOPED_TRACE(cores);
    HwContext par_hw(MachineConfig::Lx2MultiCore(cores));
    auto parallel = MakeUniformSimulation(par_hw, p);
    parallel->Run(5);
    ExpectSimsBitIdentical(*serial, *parallel);
  }
}

// The default kFullOpt schedule must be bit-stable across core counts,
// including the odd count 3.
TEST(FusedPipeline, BitIdenticalAcrossCoreCounts) {
  UseManyThreads();
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.tile = 4;
  p.variant = DepositVariant::kFullOpt;

  HwContext serial_hw;
  auto serial = MakeUniformSimulation(serial_hw, p);
  serial->Run(5);
  for (int cores : {2, 3, 4}) {
    SCOPED_TRACE(cores);
    HwContext par_hw(MachineConfig::Lx2MultiCore(cores));
    auto parallel = MakeUniformSimulation(par_hw, p);
    parallel->Run(5);
    ExpectSimsBitIdentical(*serial, *parallel);
  }
}

// ---- Colored reduction schedule --------------------------------------------

// Node-footprint overlap of two tiles: each writes nodes
// [lo - h, lo + extent + h] per axis during the rhocell reduction.
bool FootprintsOverlap(const ParticleTile& a, const ParticleTile& b, int h) {
  auto axis = [h](int lo1, int n1, int lo2, int n2) {
    return lo1 + n1 + h >= lo2 - h && lo2 + n2 + h >= lo1 - h;
  };
  return axis(a.lo_x(), a.nx(), b.lo_x(), b.nx()) &&
         axis(a.lo_y(), a.ny(), b.lo_y(), b.ny()) &&
         axis(a.lo_z(), a.nz(), b.lo_z(), b.nz());
}

void ExpectValidColoring(const TileSet& tiles, int halo) {
  const auto classes = tiles.HaloDisjointColoring(halo);
  std::vector<int> seen(static_cast<size_t>(tiles.num_tiles()), 0);
  for (const std::vector<int>& cls : classes) {
    int prev = -1;
    for (int t : cls) {
      ASSERT_GE(t, 0);
      ASSERT_LT(t, tiles.num_tiles());
      EXPECT_GT(t, prev) << "class not in ascending tile order";
      prev = t;
      ++seen[static_cast<size_t>(t)];
    }
    for (size_t i = 0; i < cls.size(); ++i) {
      for (size_t j = i + 1; j < cls.size(); ++j) {
        EXPECT_FALSE(FootprintsOverlap(tiles.tile(cls[i]), tiles.tile(cls[j]), halo))
            << "tiles " << cls[i] << " and " << cls[j]
            << " share nodes within one color";
      }
    }
  }
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], 1) << "tile " << t;
  }
}

GridGeometry MakeGeom(int nx, int ny, int nz) {
  GridGeometry g;
  g.nx = nx;
  g.ny = ny;
  g.nz = nz;
  g.dx = g.dy = g.dz = 1.0e-6;
  return g;
}

TEST(ReduceColoring, CheckerboardIsHaloDisjoint) {
  // Halo 0/1 are the rhocell reaches (CIC/QSP); 2 is the Esirkepov union
  // window's reach at orders 2-3 (EsirkepovHaloNodes).
  for (int halo : {0, 1, 2}) {
    SCOPED_TRACE(halo);
    TileSet cubic(MakeGeom(16, 16, 16), 4, 4, 4);
    ExpectValidColoring(cubic, halo);
    TileSet ragged(MakeGeom(10, 6, 16), 4, 4, 8);  // ragged edge tiles
    ExpectValidColoring(ragged, halo);
    TileSet slab(MakeGeom(8, 8, 64), 8, 8, 8);  // single tile in x/y
    ExpectValidColoring(slab, halo);
  }
}

TEST(ReduceColoring, ThinTilesFallBackToSerialAxis) {
  // Tile extent 2 <= 2 * halo for QSP: parity cannot separate tiles two apart
  // along z, so that axis degrades to one color per coordinate.
  TileSet thin(MakeGeom(8, 8, 8), 8, 8, 2);
  ExpectValidColoring(thin, 1);
  // Parity would give at most 2 z-colors; the fallback needs 4.
  EXPECT_EQ(thin.HaloDisjointColoring(1).size(), 4u);
  // CIC (halo 0) still gets the cheap checkerboard on the same tiling.
  EXPECT_EQ(thin.HaloDisjointColoring(0).size(), 2u);
}

TEST(ReduceColoring, SingleTileIsOneClass) {
  TileSet one(MakeGeom(8, 8, 8), 8, 8, 8);
  const auto classes = one.HaloDisjointColoring(1);
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0], std::vector<int>({0}));
}

// The colored parallel reduction must agree bitwise with the serial
// color-major sweep — pinned end-to-end by running the same fused workload at
// 1 and 4 cores with a QSP rhocell variant (halo 1, eight color classes).
TEST(ReduceColoring, ColoredReduceMatchesSerialReduceBitwise) {
  UseManyThreads();
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 12;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.tile = 4;
  p.order = 3;
  p.variant = DepositVariant::kRhocellIncrSortVpu;

  HwContext serial_hw;
  auto serial = MakeUniformSimulation(serial_hw, p);
  serial->Run(3);

  HwContext par_hw(MachineConfig::Lx2MultiCore(4));
  auto parallel = MakeUniformSimulation(par_hw, p);
  parallel->Run(3);

  ExpectSimsBitIdentical(*serial, *parallel);
}

// ---- Ledger determinism (registered gather scratch) -------------------------

// Two runs of the same configuration in one process must charge exactly the
// same cycles in every phase, even though the allocator hands the second run
// different host addresses. Before the gather scratch was registered with the
// MemMap, its identity-mapped addresses made the modeled cache behavior (and
// so total cycles) wobble by ~0.25% run to run. The Esirkepov cases pin the
// deposit's own registration of the SoA streams: at 1 core nothing else
// refreshes them between mover delivery (which can grow a tile's SoA) and
// the deposit; the denser PPC 4^3 shape is the one where that shows.
TEST(LedgerDeterminism, RepeatedRunsChargeIdenticalCycles) {
  UseManyThreads();
  struct Case {
    CurrentScheme scheme;
    int order;
    int ppc;
  };
  const Case cases[] = {{CurrentScheme::kDirect, 1, 2},
                        {CurrentScheme::kEsirkepov, 1, 4},
                        {CurrentScheme::kEsirkepov, 3, 4}};
  for (const Case& c : cases) {
    auto run = [&c](int cores, std::unique_ptr<std::vector<char>>* ballast) {
      UniformWorkloadParams p;
      p.nx = p.ny = p.nz = 8;
      p.ppc_x = p.ppc_y = p.ppc_z = c.ppc;
      p.tile = 4;
      p.order = c.order;
      p.scheme = c.scheme;
      p.variant = DepositVariant::kFullOpt;
      HwContext hw(MachineConfig::Lx2MultiCore(cores));
      auto sim = MakeUniformSimulation(hw, p);
      sim->Run(4);
      // Shift the heap before the next run allocates, so identical cycle
      // totals cannot come from the allocator accidentally reusing the same
      // addresses.
      *ballast = std::make_unique<std::vector<char>>(4097, 'x');
      return hw.ledger();
    };
    for (int cores : {1, 4}) {
      SCOPED_TRACE(testing::Message() << CurrentSchemeName(c.scheme) << " order "
                                      << c.order << " cores " << cores);
      std::unique_ptr<std::vector<char>> ballast_a, ballast_b;
      const CostLedger a = run(cores, &ballast_a);
      const CostLedger b = run(cores, &ballast_b);
      for (int ph = 0; ph < kNumPhases; ++ph) {
        EXPECT_DOUBLE_EQ(a.PhaseCycles(static_cast<Phase>(ph)),
                         b.PhaseCycles(static_cast<Phase>(ph)))
            << PhaseName(static_cast<Phase>(ph));
      }
      EXPECT_EQ(a.counters().l1_misses, b.counters().l1_misses);
      EXPECT_EQ(a.counters().l2_misses, b.counters().l2_misses);
    }
  }
}

}  // namespace
}  // namespace mpic
