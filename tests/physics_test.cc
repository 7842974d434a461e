// System-level physics validation: the PIC loop must produce textbook plasma
// behavior, independent of which deposition kernel variant runs. These tests
// exercise the full stack (inject -> gather -> push -> sort -> deposit ->
// solve) and pin quantitative physics, not just "no NaN".

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/stats.h"
#include "src/core/diagnostics.h"
#include "src/core/workloads.h"
#include "src/deposit/esirkepov.h"

namespace mpic {
namespace {

// ---------------------------------------------------------------------------
// Langmuir (plasma) oscillation: a cold plasma with a small sinusoidal
// velocity perturbation along x oscillates at the plasma frequency
// omega_p = sqrt(n e^2 / (eps0 m)).
// ---------------------------------------------------------------------------

class LangmuirOscillation : public ::testing::TestWithParam<DepositVariant> {};

TEST_P(LangmuirOscillation, FrequencyMatchesOmegaP) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.tile = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.density = 1e25;
  p.u_th = 0.0;  // cold
  p.variant = GetParam();
  HwContext hw;
  auto sim = MakeUniformSimulation(hw, p);

  // Perturb: ux = v0 * sin(2 pi x / Lx).
  const GridGeometry& g = sim->tiles().geom();
  const double v0 = 1e-4 * kSpeedOfLight;
  for (int t = 0; t < sim->tiles().num_tiles(); ++t) {
    ParticleSoA& soa = sim->tiles().tile(t).soa();
    for (size_t i = 0; i < soa.size(); ++i) {
      soa.ux[i] = v0 * std::sin(2.0 * M_PI * soa.x[i] / g.LengthX());
    }
  }

  const double omega_p =
      std::sqrt(p.density * kElectronCharge * kElectronCharge /
                (kEpsilon0 * kElectronMass));
  // Track the field energy: it oscillates at 2*omega_p (E^2). Find the first
  // maximum: it occurs at a quarter period of the plasma oscillation.
  const int max_steps = 200;
  double prev = -1.0;
  int peak_step = -1;
  for (int s = 0; s < max_steps; ++s) {
    sim->Step();
    const double fe = FieldEnergy(sim->fields());
    if (fe < prev && peak_step < 0 && s > 2) {
      peak_step = s;  // first decrease: previous step was the peak
      break;
    }
    prev = fe;
  }
  ASSERT_GT(peak_step, 0) << "field energy never peaked";
  // Quarter period T/4 = (pi/2)/omega_p.
  const double t_peak = peak_step * sim->dt();
  const double expected = 0.5 * M_PI / omega_p;
  EXPECT_NEAR(t_peak, expected, 0.25 * expected)
      << "omega_p*dt = " << omega_p * sim->dt();
}

INSTANTIATE_TEST_SUITE_P(Variants, LangmuirOscillation,
                         ::testing::Values(DepositVariant::kBaseline,
                                           DepositVariant::kFullOpt));

// ---------------------------------------------------------------------------
// Gauss's law: with the Esirkepov current scheme, div E - rho/eps0 stays at
// its initial value (rounding-level drift) on every order, schedule, core
// count, and species count; with direct deposition it drifts. The matrix
// below pins the repo's headline charge-conservation guarantee.
// ---------------------------------------------------------------------------

// Change of the Gauss residual over `steps` full PIC steps, relative to the
// charge-density scale. Exact discrete continuity keeps it at zero.
double GaussResidualChangeAfterRun(const UniformWorkloadParams& p, int cores,
                                   int steps) {
  HwContext hw(MachineConfig::Lx2MultiCore(cores));
  auto sim = MakeUniformSimulation(hw, p);
  const GridGeometry& g = sim->fields().geom;
  const FieldArray rho0 = DepositChargeDensity(*sim);
  FieldArray res0(g.nx, g.ny, g.nz, 2);
  GaussResidualField(sim->fields(), rho0, &res0);

  sim->Run(steps);

  const FieldArray rho1 = DepositChargeDensity(*sim);
  FieldArray res1(g.nx, g.ny, g.nz, 2);
  GaussResidualField(sim->fields(), rho1, &res1);
  return MaxResidualChange(res1, res0, GaussResidualScale(rho0));
}

UniformWorkloadParams GaussWorkload() {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.tile = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.u_th = 0.02;
  p.variant = DepositVariant::kBaseline;
  return p;
}

TEST(GaussLaw, DirectDepositionDrifts) {
  // Direct (non-charge-conserving) deposition violates continuity, so div E
  // drifts away from rho/eps0 over a few steps — the gap the Esirkepov scheme
  // closes.
  const double drift = GaussResidualChangeAfterRun(GaussWorkload(), 1, 10);
  EXPECT_GT(drift, 1e-6);
}

TEST(GaussLaw, EsirkepovConservesAcrossOrdersSchedulesAndCores) {
  // The full matrix: every shape order x core count, with smaller tiles so
  // the run crosses tile boundaries and exercises the colored reduce (serial
  // at 1 core, fanned out above). Residual change stays at rounding
  // everywhere.
  for (int order : {1, 2, 3}) {
    for (int cores : {1, 2, 4}) {
      UniformWorkloadParams p = GaussWorkload();
      p.tile = 4;
      p.order = order;
      // kFullOpt pins the scheme onto the complete sort machinery (GPMA
      // maintenance + policy); its rhocell/MPU kernels are replaced by the
      // Esirkepov tile kernel, which is how order 2 becomes legal here.
      p.variant = DepositVariant::kFullOpt;
      p.scheme = CurrentScheme::kEsirkepov;
      const double drift = GaussResidualChangeAfterRun(p, cores, 10);
      EXPECT_LT(drift, 1e-8) << "order " << order << " cores " << cores;
    }
  }
}

TEST(GaussLaw, EsirkepovConservesForEveryVariantFamily) {
  // The scheme is orthogonal to the variant: unsorted scatter, incremental
  // sort, and global-sort-each-step all keep the residual frozen (the
  // global-sort case additionally proves old positions survive the counting
  // sort between push and deposit).
  for (DepositVariant v :
       {DepositVariant::kBaseline, DepositVariant::kBaselineIncrSort,
        DepositVariant::kHybridGlobalSort}) {
    UniformWorkloadParams p = GaussWorkload();
    p.tile = 4;
    p.variant = v;
    p.scheme = CurrentScheme::kEsirkepov;
    const double drift = GaussResidualChangeAfterRun(p, 2, 10);
    EXPECT_LT(drift, 1e-8) << VariantName(v);
  }
}

TEST(GaussLaw, EsirkepovConservesMultiSpecies) {
  // Electron + proton plasma, both depositing through the Esirkepov scheme
  // into the shared J with the single end-of-step guard fold. The proton
  // background runs at half density (and its own PPC) so the net rho — the
  // residual scale — stays finite instead of cancelling to rounding.
  UniformWorkloadParams p = GaussWorkload();
  p.tile = 4;
  p.variant = DepositVariant::kFullOpt;
  p.scheme = CurrentScheme::kEsirkepov;
  UniformSpeciesParams electrons;
  UniformSpeciesParams protons;
  protons.species = Species::Proton();
  protons.density = 0.5e25;
  protons.ppc_x = protons.ppc_y = protons.ppc_z = 1;
  p.species_params = {electrons, protons};
  const double drift = GaussResidualChangeAfterRun(p, 4, 10);
  EXPECT_LT(drift, 1e-8);
}

// ---------------------------------------------------------------------------
// Momentum bookkeeping across the full loop
// ---------------------------------------------------------------------------

TEST(Momentum, TotalCurrentMatchesParticleDrift) {
  // Give the plasma a uniform drift: the deposited total J must equal
  // n q v_drift summed over the box, for every variant — and for the
  // Esirkepov scheme, whose integrated J is the same first moment expressed
  // as charge displacement per unit time.
  struct Combo {
    DepositVariant variant;
    CurrentScheme scheme;
  };
  for (const Combo c : {Combo{DepositVariant::kBaseline, CurrentScheme::kDirect},
                        Combo{DepositVariant::kFullOpt, CurrentScheme::kDirect},
                        Combo{DepositVariant::kFullOpt, CurrentScheme::kEsirkepov}}) {
    const DepositVariant v = c.variant;
    UniformWorkloadParams p;
    p.nx = p.ny = p.nz = 8;
    p.tile = 8;
    p.ppc_x = p.ppc_y = p.ppc_z = 2;
    p.u_th = 0.0;
    p.variant = v;
    p.scheme = c.scheme;
    HwContext hw;
    auto sim = MakeUniformSimulation(hw, p);
    const double u_drift = 0.02 * kSpeedOfLight;
    for (int t = 0; t < sim->tiles().num_tiles(); ++t) {
      ParticleSoA& soa = sim->tiles().tile(t).soa();
      for (size_t i = 0; i < soa.size(); ++i) {
        soa.uz[i] = u_drift;
      }
    }
    sim->Step();
    const GridGeometry& g = sim->tiles().geom();
    const double gamma = std::sqrt(1.0 + 0.0004);
    const double expected = p.density * kElectronCharge * (u_drift / gamma) *
                            g.LengthX() * g.LengthY() * g.LengthZ() /
                            (g.dx * g.dy * g.dz);
    const double got = sim->fields().jz.InteriorSumUnique();
    EXPECT_NEAR(got, expected, std::fabs(expected) * 1e-9)
        << VariantName(v);
  }
}

}  // namespace
}  // namespace mpic
