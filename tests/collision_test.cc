// Takizuka-Abe collision module tests: pairing rules (even/triplet intra,
// wrap-around inter), per-pair conservation laws, the full-simulation
// conservation/determinism battery across core counts and thread counts, the
// two-temperature relaxation physics, the
// per-step pairing census across GPMA-valid sort modes and orders 1-3, and
// ledger determinism with the collision scratch keyed-registered.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "src/collide/collision.h"
#include "src/collide/pairing.h"
#include "src/common/rng.h"
#include "src/core/diagnostics.h"
#include "src/core/simulation.h"
#include "src/core/workloads.h"

namespace mpic {
namespace {

void UseManyThreads() {
#ifdef _OPENMP
  omp_set_num_threads(4);
#endif
}

// ---- Pairing rules (pure functions) -----------------------------------------

TEST(Pairing, IntraEvenPairsEveryParticleExactlyOnce) {
  for (int32_t n = 2; n <= 24; n += 2) {
    SCOPED_TRACE(n);
    std::vector<CellPair> pairs;
    AppendIntraCellPairs(n, &pairs);
    ASSERT_EQ(pairs.size(), static_cast<size_t>(n / 2));
    std::vector<int> seen(static_cast<size_t>(n), 0);
    for (const CellPair& p : pairs) {
      EXPECT_NE(p.a, p.b);
      EXPECT_DOUBLE_EQ(p.dt_scale, 1.0);
      ++seen[static_cast<size_t>(p.a)];
      ++seen[static_cast<size_t>(p.b)];
    }
    for (int32_t i = 0; i < n; ++i) {
      EXPECT_EQ(seen[static_cast<size_t>(i)], 1) << "particle " << i;
    }
  }
}

TEST(Pairing, IntraOddUsesTripletRule) {
  for (int32_t n = 3; n <= 25; n += 2) {
    SCOPED_TRACE(n);
    std::vector<CellPair> pairs;
    AppendIntraCellPairs(n, &pairs);
    // Three half-step triplet pairs plus (n-3)/2 full-step pairs.
    ASSERT_EQ(pairs.size(), static_cast<size_t>(3 + (n - 3) / 2));
    std::vector<int> seen(static_cast<size_t>(n), 0);
    std::vector<double> dt_sum(static_cast<size_t>(n), 0.0);
    for (const CellPair& p : pairs) {
      EXPECT_NE(p.a, p.b);
      ++seen[static_cast<size_t>(p.a)];
      ++seen[static_cast<size_t>(p.b)];
      dt_sum[static_cast<size_t>(p.a)] += p.dt_scale;
      dt_sum[static_cast<size_t>(p.b)] += p.dt_scale;
    }
    for (int32_t i = 0; i < n; ++i) {
      // Triplet members are scattered twice at half strength; everyone else
      // once at full strength — every particle sees one full collision step.
      EXPECT_EQ(seen[static_cast<size_t>(i)], i < 3 ? 2 : 1) << "particle " << i;
      EXPECT_DOUBLE_EQ(dt_sum[static_cast<size_t>(i)], 1.0) << "particle " << i;
    }
  }
}

TEST(Pairing, IntraDegenerateCountsProduceNoPairs) {
  for (int32_t n : {0, 1}) {
    std::vector<CellPair> pairs;
    AppendIntraCellPairs(n, &pairs);
    EXPECT_TRUE(pairs.empty());
  }
}

TEST(Pairing, InterWrapAroundCoversBothGroups) {
  for (int32_t na = 0; na <= 12; ++na) {
    for (int32_t nb = 0; nb <= 12; ++nb) {
      SCOPED_TRACE(std::to_string(na) + "x" + std::to_string(nb));
      std::vector<CellPair> pairs;
      AppendInterCellPairs(na, nb, &pairs);
      if (na == 0 || nb == 0) {
        EXPECT_TRUE(pairs.empty());
        continue;
      }
      const int32_t n_max = std::max(na, nb);
      const int32_t n_min = std::min(na, nb);
      ASSERT_EQ(pairs.size(), static_cast<size_t>(n_max));
      std::vector<int> seen_a(static_cast<size_t>(na), 0);
      std::vector<int> seen_b(static_cast<size_t>(nb), 0);
      for (const CellPair& p : pairs) {
        ASSERT_GE(p.a, 0);
        ASSERT_LT(p.a, na);
        ASSERT_GE(p.b, 0);
        ASSERT_LT(p.b, nb);
        ++seen_a[static_cast<size_t>(p.a)];
        ++seen_b[static_cast<size_t>(p.b)];
      }
      // Larger group: exactly once. Smaller group: floor/ceil(n_max/n_min).
      for (int32_t i = 0; i < na; ++i) {
        const int expect_lo = na >= nb ? 1 : n_max / n_min;
        const int expect_hi = na >= nb ? 1 : (n_max + n_min - 1) / n_min;
        EXPECT_GE(seen_a[static_cast<size_t>(i)], expect_lo);
        EXPECT_LE(seen_a[static_cast<size_t>(i)], expect_hi);
      }
      for (int32_t i = 0; i < nb; ++i) {
        const int expect_lo = nb >= na ? 1 : n_max / n_min;
        const int expect_hi = nb >= na ? 1 : (n_max + n_min - 1) / n_min;
        EXPECT_GE(seen_b[static_cast<size_t>(i)], expect_lo);
        EXPECT_LE(seen_b[static_cast<size_t>(i)], expect_hi);
      }
    }
  }
}

// ---- Per-pair scattering conservation ---------------------------------------

TEST(ScatterPair, ConservesMomentumEnergyAndRelativeSpeed) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    // Unequal masses and macro-weights exercise the weight-aware reduced mass.
    const double m1 = 1e-30 * (1.0 + rng.NextDouble());
    const double m2 = 1e-30 * (1.0 + 100.0 * rng.NextDouble());
    const double w1 = 1e4 * (1.0 + rng.NextDouble());
    const double w2 = 1e4 * (1.0 + rng.NextDouble());
    double u1[3], u2[3];
    for (int c = 0; c < 3; ++c) {
      u1[c] = 1e6 * (rng.NextDouble() - 0.5);
      u2[c] = 1e6 * (rng.NextDouble() - 0.5);
    }
    const double theta = rng.Uniform(0.0, M_PI);
    const double phi = rng.Uniform(0.0, 2.0 * M_PI);

    double p_before[3], ke_before = 0.0;
    for (int c = 0; c < 3; ++c) {
      p_before[c] = w1 * m1 * u1[c] + w2 * m2 * u2[c];
      ke_before += 0.5 * (w1 * m1 * u1[c] * u1[c] + w2 * m2 * u2[c] * u2[c]);
    }
    const double g_before = std::sqrt((u1[0] - u2[0]) * (u1[0] - u2[0]) +
                                      (u1[1] - u2[1]) * (u1[1] - u2[1]) +
                                      (u1[2] - u2[2]) * (u1[2] - u2[2]));

    ScatterPair(std::cos(theta), std::sin(theta), phi, m1, w1, m2, w2, u1, u2);

    const double p_scale = std::abs(w1 * m1) * 1e6 + std::abs(w2 * m2) * 1e6;
    for (int c = 0; c < 3; ++c) {
      const double p_after = w1 * m1 * u1[c] + w2 * m2 * u2[c];
      EXPECT_NEAR(p_after, p_before[c], 1e-12 * p_scale) << "component " << c;
    }
    double ke_after = 0.0;
    for (int c = 0; c < 3; ++c) {
      ke_after += 0.5 * (w1 * m1 * u1[c] * u1[c] + w2 * m2 * u2[c] * u2[c]);
    }
    EXPECT_NEAR(ke_after, ke_before, 1e-11 * ke_before);
    const double g_after = std::sqrt((u1[0] - u2[0]) * (u1[0] - u2[0]) +
                                     (u1[1] - u2[1]) * (u1[1] - u2[1]) +
                                     (u1[2] - u2[2]) * (u1[2] - u2[2]));
    EXPECT_NEAR(g_after, g_before, 1e-11 * g_before);
  }
}

TEST(ScatterPair, ZeroRelativeVelocityIsIdentity) {
  double u1[3] = {1e6, -2e6, 3e6};
  double u2[3] = {1e6, -2e6, 3e6};
  ScatterPair(0.5, std::sqrt(0.75), 1.0, 1e-30, 1e4, 2e-30, 2e4, u1, u2);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(u1[c], u2[c]);
  }
  EXPECT_EQ(u1[0], 1e6);
}

// ---- Conservation battery (module-level, every pair kind) -------------------

double NonRelKineticEnergy(const Simulation& sim) {
  double ke = 0.0;
  for (int sid = 0; sid < sim.num_species(); ++sid) {
    const TileSet& tiles = sim.block(sid).tiles;
    const double m = sim.species(sid).mass;
    for (int t = 0; t < tiles.num_tiles(); ++t) {
      const ParticleTile& tile = tiles.tile(t);
      const ParticleSoA& soa = tile.soa();
      for (int32_t pid = 0; pid < tile.num_slots(); ++pid) {
        if (!tile.IsLive(pid)) {
          continue;
        }
        const auto i = static_cast<size_t>(pid);
        ke += 0.5 * soa.w[i] * m *
              (soa.ux[i] * soa.ux[i] + soa.uy[i] * soa.uy[i] +
               soa.uz[i] * soa.uz[i]);
      }
    }
  }
  return ke;
}

void TotalMomentum(const Simulation& sim, double out[3]) {
  out[0] = out[1] = out[2] = 0.0;
  for (int sid = 0; sid < sim.num_species(); ++sid) {
    double p[3];
    SpeciesMomentum(sim.block(sid).tiles, sim.species(sid), p);
    for (int c = 0; c < 3; ++c) {
      out[c] += p[c];
    }
  }
}

double MomentumScale(const Simulation& sim) {
  double scale = 0.0;
  for (int sid = 0; sid < sim.num_species(); ++sid) {
    const TileSet& tiles = sim.block(sid).tiles;
    const double m = sim.species(sid).mass;
    for (int t = 0; t < tiles.num_tiles(); ++t) {
      const ParticleTile& tile = tiles.tile(t);
      const ParticleSoA& soa = tile.soa();
      for (int32_t pid = 0; pid < tile.num_slots(); ++pid) {
        if (!tile.IsLive(pid)) {
          continue;
        }
        const auto i = static_cast<size_t>(pid);
        scale += soa.w[i] * m *
                 std::sqrt(soa.ux[i] * soa.ux[i] + soa.uy[i] * soa.uy[i] +
                           soa.uz[i] * soa.uz[i]);
      }
    }
  }
  return scale;
}

// Applies the collision operator in isolation (no fields, no push) so the
// conservation laws can be pinned without field-mediated momentum exchange.
TEST(CollisionConservation, MomentumExactEnergyToTolerance) {
  CollisionalRelaxationParams p;
  p.collisions_enabled = false;  // the test drives the module directly
  HwContext hw;
  auto sim = MakeCollisionalRelaxationSimulation(hw, p);

  CollisionConfig cc;
  cc.pairs = {{0, 0, 200.0}, {1, 1, 200.0}, {0, 1, 200.0}};
  CollisionModule mod(hw, cc);
  mod.Initialize({&sim->block(0), &sim->block(1)});

  double p_before[3];
  TotalMomentum(*sim, p_before);
  const double ke_before = NonRelKineticEnergy(*sim);
  const double ke_rel_before = TotalKineticEnergy(*sim);
  const double p_scale = MomentumScale(*sim);

  for (int step = 0; step < 5; ++step) {
    mod.Apply(step, sim->dt());
    EXPECT_GT(mod.last_step_stats().pairs, 0);

    double p_after[3];
    TotalMomentum(*sim, p_after);
    for (int c = 0; c < 3; ++c) {
      // Machine precision: the per-pair impulse cancels exactly; only summation
      // rounding across ~8k particles remains.
      EXPECT_NEAR(p_after[c], p_before[c], 1e-12 * p_scale)
          << "step " << step << " component " << c;
    }
    // The operator is elastic in the proper velocities...
    EXPECT_NEAR(NonRelKineticEnergy(*sim), ke_before, 1e-10 * ke_before)
        << "step " << step;
    // ...and conserves the relativistic kinetic energy to O(u^2/c^2) of the
    // (small) exchanged energy.
    EXPECT_NEAR(TotalKineticEnergy(*sim), ke_rel_before, 1e-5 * ke_rel_before)
        << "step " << step;
  }
}

// ---- Bit-identity matrix: cores x threads ----------------------------------

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

// With collisions enabled, the physics must stay bit-identical for any
// num_cores: the 1-core reference runs the serial deposit and reduce, the
// multi-core runs fan them out (the OMP_NUM_THREADS axis is covered by CI
// running the whole suite at 1 and 4 threads). Mirrors tests/fusion_test.cc's
// matrix.
TEST(CollisionDeterminism, BitIdenticalAcrossCoresAndSchedules) {
  UseManyThreads();
  CollisionalRelaxationParams p;
  p.coulomb_log = 300.0;

  HwContext ref_hw;
  auto ref = MakeCollisionalRelaxationSimulation(ref_hw, p);
  ref->Run(4);
  EXPECT_GT(ref->last_sim_stats().collisions.pairs, 0);

  for (int cores : {2, 4}) {
    SCOPED_TRACE("cores " + std::to_string(cores));
    HwContext hw(MachineConfig::Lx2MultiCore(cores));
    auto sim = MakeCollisionalRelaxationSimulation(hw, p);
    sim->Run(4);
    ExpectSimsBitIdentical(*ref, *sim);
  }
}

// ---- Per-step pairing census across sort modes and orders -------------------

// Every live particle must be covered by the pairing exactly once per
// configured pair (unpaired counts the lone-particle/empty-partner cells), on
// every sort mode that keeps the GPMA valid and at orders 1-3.
TEST(CollisionPairingCensus, CoversEveryLiveParticleAcrossSortModesAndOrders) {
  struct Combo {
    DepositVariant variant;
    int order;
  };
  // kIncremental maintains the GPMA continuously; kGlobalEachStep rebuilds it
  // every step. The unsorted baselines (kBaseline, kRhocell, kHybridNoSort,
  // kScalar) have no valid GPMA and are rejected by CollisionModule.
  const std::vector<Combo> combos = {
      {DepositVariant::kFullOpt, 1},          {DepositVariant::kFullOpt, 3},
      {DepositVariant::kBaselineIncrSort, 1}, {DepositVariant::kBaselineIncrSort, 2},
      {DepositVariant::kBaselineIncrSort, 3}, {DepositVariant::kRhocellIncrSortVpu, 3},
      {DepositVariant::kHybridGlobalSort, 1},
  };
  for (const Combo& c : combos) {
    SCOPED_TRACE(std::string(VariantName(c.variant)) + " order " +
                 std::to_string(c.order));
    CollisionalRelaxationParams p;
    p.variant = c.variant;
    p.order = c.order;
    // Odd PPC per cell makes the intra-species triplet rule fire everywhere;
    // unequal hot/cold counts exercise the inter-species wrap-around.
    p.ppc_x = 3;
    p.ppc_y = 1;
    p.ppc_z = 1;
    HwContext hw;
    auto sim = MakeCollisionalRelaxationSimulation(hw, p);
    const int64_t live = sim->block(0).tiles.TotalLive() +
                         sim->block(1).tiles.TotalLive();
    for (int s = 0; s < 3; ++s) {
      sim->Step();
      const CollisionStepStats& cs = sim->last_sim_stats().collisions;
      EXPECT_GT(cs.pairs, 0) << "step " << s;
      // Three configured pairs (hot-hot, cold-cold, hot-cold): each species
      // is covered once by its intra pair and once by the inter pair, so the
      // pairing incidences must account for every live particle twice.
      EXPECT_EQ(cs.covered + cs.unpaired, 2 * live) << "step " << s;
    }
  }
}

// ---- Physics: two-temperature relaxation ------------------------------------

TEST(CollisionPhysics, TwoTemperatureRelaxationConvergesMonotonically) {
  CollisionalRelaxationParams p;
  p.coulomb_log = 300.0;  // rate knob: compresses equilibration into ~60 steps
  HwContext hw;
  auto sim = MakeCollisionalRelaxationSimulation(hw, p);

  std::vector<double> hot, cold;
  hot.push_back(SpeciesTemperature(sim->block(0).tiles, sim->species(0)));
  cold.push_back(SpeciesTemperature(sim->block(1).tiles, sim->species(1)));
  ASSERT_GT(hot[0], cold[0]);
  for (int block = 0; block < 3; ++block) {
    sim->Run(20);
    hot.push_back(SpeciesTemperature(sim->block(0).tiles, sim->species(0)));
    cold.push_back(SpeciesTemperature(sim->block(1).tiles, sim->species(1)));
  }
  for (size_t i = 1; i < hot.size(); ++i) {
    EXPECT_LT(hot[i], hot[i - 1]) << "sample " << i;
    EXPECT_GT(cold[i], cold[i - 1]) << "sample " << i;
    EXPECT_GT(hot[i], cold[i]) << "no overshoot, sample " << i;
  }
  // Coarse tolerance on the rate: the gap must have closed substantially.
  EXPECT_LT(hot.back() - cold.back(), 0.75 * (hot[0] - cold[0]));
}

TEST(CollisionPhysics, EqualTemperaturePlasmaStaysStationary) {
  CollisionalRelaxationParams p;
  p.coulomb_log = 300.0;
  p.u_th_hot = 0.01;
  p.u_th_cold = 0.01;
  HwContext hw;
  auto sim = MakeCollisionalRelaxationSimulation(hw, p);

  const double t0_hot = SpeciesTemperature(sim->block(0).tiles, sim->species(0));
  const double t0_cold = SpeciesTemperature(sim->block(1).tiles, sim->species(1));
  sim->Run(40);
  // In equilibrium collisions must not secularly heat or cool either species
  // (a few percent covers plasma noise over the run).
  EXPECT_NEAR(SpeciesTemperature(sim->block(0).tiles, sim->species(0)), t0_hot,
              0.03 * t0_hot);
  EXPECT_NEAR(SpeciesTemperature(sim->block(1).tiles, sim->species(1)), t0_cold,
              0.03 * t0_cold);
}

// ---- Ledger determinism with collisions enabled -----------------------------

// Mirrors fusion_test's LedgerDeterminism: with the collision stage in the
// loop, repeated runs must charge exactly the same cycles in every phase —
// which requires the pairing scratch to be keyed-registered, not
// identity-mapped.
TEST(LedgerDeterminism, CollisionsChargeIdenticalCyclesAcrossRuns) {
  UseManyThreads();
  auto run = [](int cores, std::unique_ptr<std::vector<char>>* ballast) {
    CollisionalRelaxationParams p;
    p.coulomb_log = 300.0;
    HwContext hw(MachineConfig::Lx2MultiCore(cores));
    auto sim = MakeCollisionalRelaxationSimulation(hw, p);
    sim->Run(4);
    // Shift the heap before the next run allocates, so identical cycle totals
    // cannot come from the allocator accidentally reusing the same addresses.
    *ballast = std::make_unique<std::vector<char>>(4097, 'x');
    return hw.ledger();
  };
  for (int cores : {1, 4}) {
    SCOPED_TRACE(cores);
    std::unique_ptr<std::vector<char>> ballast_a, ballast_b;
    const CostLedger a = run(cores, &ballast_a);
    const CostLedger b = run(cores, &ballast_b);
    EXPECT_GT(a.PhaseCycles(Phase::kCollide), 0.0);
    for (int ph = 0; ph < kNumPhases; ++ph) {
      EXPECT_DOUBLE_EQ(a.PhaseCycles(static_cast<Phase>(ph)),
                       b.PhaseCycles(static_cast<Phase>(ph)))
          << PhaseName(static_cast<Phase>(ph));
    }
    EXPECT_EQ(a.counters().l1_misses, b.counters().l1_misses);
    EXPECT_EQ(a.counters().l2_misses, b.counters().l2_misses);
  }
}

// The collide phase must appear in the ledger breakdown and the per-phase
// cycles must still sum exactly to the total.
TEST(CollisionLedger, CollidePhaseAppearsAndBreakdownSums) {
  CollisionalRelaxationParams p;
  HwContext hw;
  auto sim = MakeCollisionalRelaxationSimulation(hw, p);
  sim->Run(3);
  EXPECT_GT(hw.ledger().PhaseCycles(Phase::kCollide), 0.0);
  double sum = 0.0;
  for (int ph = 0; ph < kNumPhases; ++ph) {
    sum += hw.ledger().PhaseCycles(static_cast<Phase>(ph));
  }
  EXPECT_NEAR(sum, hw.ledger().TotalCycles(), 1e-9 * hw.ledger().TotalCycles());

  // Disabled collisions must leave the phase exactly empty.
  p.collisions_enabled = false;
  HwContext off_hw;
  auto off = MakeCollisionalRelaxationSimulation(off_hw, p);
  off->Run(3);
  EXPECT_EQ(off_hw.ledger().PhaseCycles(Phase::kCollide), 0.0);
  EXPECT_EQ(off->collisions(), nullptr);
}

}  // namespace
}  // namespace mpic
