#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/deposition_engine.h"
#include "src/core/workloads.h"
#include "src/particles/species.h"

namespace mpic {
namespace {

// Test-local serial stage driver: one single-species step of the engine's
// per-tile protocol (deposition_engine.h), every stage on `hw` in tile order,
// the reduction color class by color class, then the guard fold and the
// re-sort policy. J must be zeroed by the caller.
EngineStepStats RunSerialEngineStep(HwContext& hw, DepositionEngine& engine,
                                    TileSet& tiles, FieldSet& fields) {
  EngineStepStats stats;
  const double cycles_before = hw.ledger().DepositionCycles();
  engine.BeginStep(tiles);
  TileScanPartial scan;
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    engine.ScanTile(hw, tiles, t, &scan);
  }
  engine.AccumulateScan(scan, &stats);
  engine.DeliverMovers(tiles, &stats);
  engine.PostScanGlobalSort(tiles, fields, &stats);
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    engine.StageAndDepositTile(hw, tiles, fields, kElectronCharge, t);
  }
  for (const std::vector<int>& color_class : engine.reduce_coloring()) {
    for (int t : color_class) {
      engine.ReduceTile(hw, tiles, fields, t);
    }
  }
  DepositionEngine::FoldCurrentGuards(hw, fields);
  engine.FinishStep(tiles, fields,
                    hw.ledger().DepositionCycles() - cycles_before, &stats);
  return stats;
}

struct EngineWorld {
  explicit EngineWorld(DepositVariant variant, int order = 1, int ppc = 4,
                       uint64_t seed = 42)
      : geom(MakeGeom()),
        fields(geom, 2),
        tiles(geom, 4, 4, 4),
        hw(),
        engine(hw, MakeEngineConfig(variant, order)) {
    Rng rng(seed);
    const int64_t n = geom.NumCells() * ppc;
    for (int64_t i = 0; i < n; ++i) {
      Particle p;
      p.x = rng.Uniform(0.0, geom.LengthX());
      p.y = rng.Uniform(0.0, geom.LengthY());
      p.z = rng.Uniform(0.0, geom.LengthZ());
      p.ux = rng.NextGaussian() * 0.05 * kSpeedOfLight;
      p.uy = rng.NextGaussian() * 0.05 * kSpeedOfLight;
      p.uz = rng.NextGaussian() * 0.05 * kSpeedOfLight;
      p.w = 1e10;
      tiles.AddParticle(p);
    }
    engine.Initialize(tiles, fields);
  }

  static GridGeometry MakeGeom() {
    GridGeometry g;
    g.nx = g.ny = g.nz = 8;
    g.dx = g.dy = g.dz = 3.0e-7;
    return g;
  }

  static EngineConfig MakeEngineConfig(DepositVariant variant, int order) {
    EngineConfig cfg;
    cfg.variant = variant;
    cfg.order = order;
    return cfg;
  }

  EngineStepStats Deposit() {
    return RunSerialEngineStep(hw, engine, tiles, fields);
  }

  // Pseudo-random walk that is a pure function of (seed, particle position):
  // identical across worlds even when a global sort reorders particle memory.
  static double HashStep(uint64_t h) {
    h += 0x9E3779B97F4A7C15ull;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    h = h ^ (h >> 31);
    return static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;  // [-1, 1)
  }

  void Jiggle(uint64_t seed, double cell_fraction = 0.4) {
    for (int t = 0; t < tiles.num_tiles(); ++t) {
      ParticleTile& tile = tiles.tile(t);
      ParticleSoA& soa = tile.soa();
      for (int32_t pid = 0; pid < tile.num_slots(); ++pid) {
        if (!tile.IsLive(pid)) {
          continue;
        }
        const auto i = static_cast<size_t>(pid);
        uint64_t h = seed;
        uint64_t bits;
        std::memcpy(&bits, &soa.x[i], sizeof(bits));
        h ^= bits * 0x2545F4914F6CDD1Dull;
        std::memcpy(&bits, &soa.y[i], sizeof(bits));
        h ^= bits * 0x9E3779B97F4A7C15ull;
        std::memcpy(&bits, &soa.z[i], sizeof(bits));
        h ^= bits * 0xD6E8FEB86659FD93ull;
        soa.x[i] = geom.WrapX(soa.x[i] + HashStep(h) * cell_fraction * geom.dx);
        soa.y[i] = geom.WrapY(soa.y[i] + HashStep(h + 1) * cell_fraction * geom.dy);
        soa.z[i] = geom.WrapZ(soa.z[i] + HashStep(h + 2) * cell_fraction * geom.dz);
      }
    }
  }

  GridGeometry geom;
  FieldSet fields;
  TileSet tiles;
  HwContext hw;
  DepositionEngine engine;
};

// All variants must produce identical J for the same particle state.
class VariantEquivalence : public ::testing::TestWithParam<DepositVariant> {};

TEST_P(VariantEquivalence, MatchesScalarVariantAfterChurn) {
  EngineWorld ref_world(DepositVariant::kScalar);
  EngineWorld world(GetParam());

  for (int step = 0; step < 3; ++step) {
    ref_world.Jiggle(100 + step);
    world.Jiggle(100 + step);  // identical motion (same seed, same init)
    ref_world.fields.ZeroCurrents();
    world.fields.ZeroCurrents();
    ref_world.Deposit();
    world.Deposit();
    EXPECT_LT(RelMaxError(ref_world.fields.jx.vec(), world.fields.jx.vec()), 1e-11)
        << "step " << step;
    EXPECT_LT(RelMaxError(ref_world.fields.jy.vec(), world.fields.jy.vec()), 1e-11);
    EXPECT_LT(RelMaxError(ref_world.fields.jz.vec(), world.fields.jz.vec()), 1e-11);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, VariantEquivalence,
    ::testing::Values(DepositVariant::kBaseline, DepositVariant::kBaselineIncrSort,
                      DepositVariant::kRhocell, DepositVariant::kRhocellIncrSort,
                      DepositVariant::kRhocellIncrSortVpu,
                      DepositVariant::kMatrixOnly, DepositVariant::kHybridNoSort,
                      DepositVariant::kHybridGlobalSort, DepositVariant::kFullOpt),
    [](const auto& param_info) {
      std::string name = VariantName(param_info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

TEST(Engine, QspVariantsAgree) {
  EngineWorld ref_world(DepositVariant::kScalar, 3);
  EngineWorld vpu_world(DepositVariant::kRhocellIncrSortVpu, 3);
  EngineWorld mpu_world(DepositVariant::kFullOpt, 3);
  for (int step = 0; step < 2; ++step) {
    ref_world.Jiggle(7 + step);
    vpu_world.Jiggle(7 + step);
    mpu_world.Jiggle(7 + step);
    ref_world.fields.ZeroCurrents();
    vpu_world.fields.ZeroCurrents();
    mpu_world.fields.ZeroCurrents();
    ref_world.Deposit();
    vpu_world.Deposit();
    mpu_world.Deposit();
    EXPECT_LT(RelMaxError(ref_world.fields.jx.vec(), vpu_world.fields.jx.vec()),
              1e-11);
    EXPECT_LT(RelMaxError(ref_world.fields.jx.vec(), mpu_world.fields.jx.vec()),
              1e-11);
  }
}

TEST(Engine, GpmaStaysValidAcrossChurnSteps) {
  EngineWorld world(DepositVariant::kFullOpt);
  const int64_t live0 = world.tiles.TotalLive();
  for (int step = 0; step < 10; ++step) {
    world.Jiggle(500 + step, 0.8);
    world.fields.ZeroCurrents();
    world.Deposit();
    for (int t = 0; t < world.tiles.num_tiles(); ++t) {
      world.tiles.tile(t).gpma().CheckInvariants();
    }
    EXPECT_EQ(world.tiles.TotalLive(), live0) << "step " << step;
  }
}

TEST(Engine, GpmaBinsMatchParticleCells) {
  EngineWorld world(DepositVariant::kFullOpt);
  for (int step = 0; step < 5; ++step) {
    world.Jiggle(900 + step, 0.7);
    world.fields.ZeroCurrents();
    world.Deposit();
  }
  for (int t = 0; t < world.tiles.num_tiles(); ++t) {
    const ParticleTile& tile = world.tiles.tile(t);
    for (int32_t pid = 0; pid < tile.num_slots(); ++pid) {
      if (!tile.IsLive(pid)) {
        continue;
      }
      EXPECT_EQ(tile.gpma().CellOf(pid), tile.CellOfParticle(world.geom, pid));
    }
  }
}

TEST(Engine, SortCyclesOnlyForSortingVariants) {
  EngineWorld none(DepositVariant::kBaseline);
  none.Jiggle(1);
  none.fields.ZeroCurrents();
  none.hw.ledger().Reset();
  none.Deposit();
  EXPECT_DOUBLE_EQ(none.hw.ledger().PhaseCycles(Phase::kSort), 0.0);

  EngineWorld incr(DepositVariant::kFullOpt);
  incr.Jiggle(1);
  incr.fields.ZeroCurrents();
  incr.hw.ledger().Reset();
  incr.Deposit();
  EXPECT_GT(incr.hw.ledger().PhaseCycles(Phase::kSort), 0.0);
}

TEST(Engine, GlobalEachStepSortsEveryStep) {
  EngineWorld world(DepositVariant::kHybridGlobalSort);
  for (int step = 0; step < 3; ++step) {
    world.Jiggle(30 + step);
    world.fields.ZeroCurrents();
    const auto stats = world.Deposit();
    EXPECT_TRUE(stats.global_sorted);
  }
}

TEST(Engine, FixedIntervalPolicyTriggersGlobalSort) {
  EngineWorld world(DepositVariant::kFullOpt);
  // Tighten the policy: sort every 3 steps (min interval 1).
  EngineConfig cfg = EngineWorld::MakeEngineConfig(DepositVariant::kFullOpt, 1);
  cfg.policy.sort_interval = 3;
  cfg.policy.min_sort_interval = 1;
  cfg.policy.trigger_perf_enable = false;
  cfg.policy.trigger_empty_ratio = -1.0;  // never
  cfg.policy.trigger_full_ratio = 2.0;    // never
  DepositionEngine engine(world.hw, cfg);
  engine.Initialize(world.tiles, world.fields);
  int sorts = 0;
  for (int step = 0; step < 9; ++step) {
    world.Jiggle(60 + step, 0.2);
    world.fields.ZeroCurrents();
    const auto stats =
        RunSerialEngineStep(world.hw, engine, world.tiles, world.fields);
    sorts += stats.global_sorted ? 1 : 0;
  }
  EXPECT_EQ(sorts, 3);
}

TEST(Engine, CrossTileMoversArePreserved) {
  EngineWorld world(DepositVariant::kFullOpt);
  const int64_t live0 = world.tiles.TotalLive();
  // Violent churn: move particles up to 3 cells -> plenty of tile crossings.
  for (int step = 0; step < 4; ++step) {
    world.Jiggle(777 + step, 3.0);
    world.fields.ZeroCurrents();
    const auto stats = world.Deposit();
    EXPECT_GT(stats.crossed_tiles, 0);
    EXPECT_EQ(world.tiles.TotalLive(), live0);
    for (int t = 0; t < world.tiles.num_tiles(); ++t) {
      world.tiles.tile(t).gpma().CheckInvariants();
    }
  }
}

TEST(Engine, AddRemoveParticleKeepsStructuresConsistent) {
  EngineWorld world(DepositVariant::kFullOpt);
  Particle p;
  p.x = p.y = p.z = 1.0e-7;
  p.w = 1e9;
  const auto h = world.tiles.AddParticle(p);
  world.engine.NotifyParticleAdded(world.hw, world.tiles, h.tile, h.pid,
                                   nullptr);
  world.tiles.tile(h.tile).gpma().CheckInvariants();
  EXPECT_EQ(world.tiles.tile(h.tile).gpma().CellOf(h.pid),
            world.tiles.tile(h.tile).CellOfParticle(world.geom, h.pid));
  world.engine.RemoveParticle(world.hw, world.tiles, h.tile, h.pid);
  world.tiles.tile(h.tile).gpma().CheckInvariants();
  EXPECT_FALSE(world.tiles.tile(h.tile).IsLive(h.pid));
}

TEST(Engine, MpuVariantsIssueMopasAndVpuVariantsDont) {
  EngineWorld vpu(DepositVariant::kRhocellIncrSortVpu);
  vpu.fields.ZeroCurrents();
  vpu.Deposit();
  EXPECT_EQ(vpu.hw.ledger().counters().mopas, 0u);

  EngineWorld mpu(DepositVariant::kFullOpt);
  mpu.fields.ZeroCurrents();
  mpu.Deposit();
  EXPECT_GT(mpu.hw.ledger().counters().mopas, 0u);
}

}  // namespace
}  // namespace mpic
