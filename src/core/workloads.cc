#include "src/core/workloads.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace mpic {

void ScrambleParticleOrder(TileSet& tiles, uint64_t seed) {
  Rng rng(seed);
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    ParticleTile& tile = tiles.tile(t);
    ParticleSoA& soa = tile.soa();
    const int32_t n = tile.num_slots();
    // Fisher-Yates over the slots; workload builders scramble before any
    // removal, so every slot is live.
    for (int32_t i = n - 1; i > 0; --i) {
      const auto j = static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(i) + 1));
      if (i != j) {
        const Particle a = soa.Get(i);
        soa.Set(i, soa.Get(j));
        soa.Set(j, a);
      }
    }
  }
}

namespace {

// Normalizes the two species-listing mechanisms of UniformWorkloadParams into
// per-species seeding parameters with base values filled in.
std::vector<UniformSpeciesParams> EffectiveUniformSpecies(
    const UniformWorkloadParams& p) {
  std::vector<UniformSpeciesParams> out;
  if (p.species_params.empty()) {
    for (const Species& s : p.species) {
      UniformSpeciesParams sp;
      sp.species = s;
      out.push_back(sp);
    }
  } else {
    out = p.species_params;
  }
  for (UniformSpeciesParams& sp : out) {
    if (sp.ppc_x <= 0) sp.ppc_x = p.ppc_x;
    if (sp.ppc_y <= 0) sp.ppc_y = p.ppc_y;
    if (sp.ppc_z <= 0) sp.ppc_z = p.ppc_z;
    if (sp.density <= 0.0) sp.density = p.density;
    if (sp.u_th < 0.0) sp.u_th = p.u_th;
  }
  return out;
}

}  // namespace

SimulationConfig MakeUniformConfig(const UniformWorkloadParams& p) {
  MPIC_CHECK_MSG(!p.species.empty() || !p.species_params.empty(),
                 "uniform workload needs >= 1 species");
  SimulationConfig cfg;
  cfg.geom.nx = p.nx;
  cfg.geom.ny = p.ny;
  cfg.geom.nz = p.nz;
  // Cell size chosen so omega_p * dt ~ 0.17 at CFL 0.95 for the default
  // density (plasma oscillations resolved; benches run a handful of steps).
  cfg.geom.dx = cfg.geom.dy = cfg.geom.dz = 3.0e-7;
  cfg.geom.x0 = cfg.geom.y0 = cfg.geom.z0 = 0.0;
  cfg.tile_x = cfg.tile_y = cfg.tile_z = p.tile;
  cfg.engine.variant = p.variant;
  cfg.engine.order = p.order;
  cfg.engine.current_scheme = p.scheme;
  if (p.policy.has_value()) {
    cfg.engine.policy = *p.policy;
  }
  cfg.species.clear();
  for (const UniformSpeciesParams& sp : EffectiveUniformSpecies(p)) {
    // Overrides merge onto the workload-wide engine config field by field, so
    // e.g. a variant-only override still runs at the workload's shape order.
    std::optional<EngineConfig> engine;
    if (sp.variant.has_value() || sp.order > 0 || sp.scheme.has_value()) {
      EngineConfig e = cfg.engine;
      if (sp.variant.has_value()) e.variant = *sp.variant;
      if (sp.order > 0) e.order = sp.order;
      if (sp.scheme.has_value()) e.current_scheme = *sp.scheme;
      engine = e;
    }
    SpeciesConfig sc;
    sc.species = sp.species;
    sc.engine = engine;
    cfg.species.push_back(sc);
  }
  cfg.cfl = 0.95;
  cfg.solver = SolverKind::kCkc;
  return cfg;
}

std::unique_ptr<Simulation> MakeUniformSimulation(HwContext& hw,
                                                  const UniformWorkloadParams& p) {
  auto sim = std::make_unique<Simulation>(hw, MakeUniformConfig(p));
  const std::vector<UniformSpeciesParams> species = EffectiveUniformSpecies(p);
  for (int sid = 0; sid < sim->num_species(); ++sid) {
    const UniformSpeciesParams& sp = species[static_cast<size_t>(sid)];
    UniformPlasmaConfig plasma;
    plasma.ppc_x = sp.ppc_x;
    plasma.ppc_y = sp.ppc_y;
    plasma.ppc_z = sp.ppc_z;
    plasma.density = sp.density;
    plasma.u_th = sp.u_th;
    // Species 0 keeps the historical seeds so the electron-only results are
    // reproduced bit-for-bit; extra species decorrelate by offset.
    plasma.seed = p.seed + static_cast<uint64_t>(sid);
    sim->SeedUniformPlasma(sid, plasma);
    ScrambleParticleOrder(sim->block(sid).tiles,
                          (p.seed ^ 0xABCD) + static_cast<uint64_t>(sid));
  }
  sim->Initialize();
  return sim;
}

SimulationConfig MakeBunchedBeamConfig(const BunchedBeamParams& p) {
  SimulationConfig cfg;
  cfg.geom.nx = p.nx;
  cfg.geom.ny = p.ny;
  cfg.geom.nz = p.nz;
  cfg.geom.dx = cfg.geom.dy = cfg.geom.dz = 3.0e-7;
  cfg.geom.x0 = cfg.geom.y0 = cfg.geom.z0 = 0.0;
  cfg.tile_x = cfg.tile_y = cfg.tile_z = p.tile;
  cfg.engine.variant = p.variant;
  cfg.engine.order = p.order;
  cfg.engine.current_scheme = p.scheme;
  if (p.policy.has_value()) {
    cfg.engine.policy = *p.policy;
  }
  cfg.cfl = 0.95;
  cfg.solver = SolverKind::kCkc;
  cfg.species = {SpeciesConfig{}};  // one electron species: bunch + background
  return cfg;
}

std::unique_ptr<Simulation> MakeBunchedBeamSimulation(HwContext& hw,
                                                      const BunchedBeamParams& p) {
  MPIC_CHECK_MSG(p.sigma_frac > 0.0 && p.sigma_perp_frac > 0.0 &&
                     p.background >= 0.0,
                 "bunched beam needs sigma > 0 and background >= 0");
  SimulationConfig cfg = MakeBunchedBeamConfig(p);
  auto sim = std::make_unique<Simulation>(hw, cfg);
  const GridGeometry& g = cfg.geom;
  const double xc = g.x0 + p.center_frac * g.LengthX();
  const double yc = g.y0 + p.center_frac * g.LengthY();
  const double zc = g.z0 + p.center_frac * g.LengthZ();
  const double sx = p.sigma_perp_frac * g.LengthX();
  const double sy = p.sigma_perp_frac * g.LengthY();
  const double sz = p.sigma_frac * g.LengthZ();
  const auto envelope = [&](double x, double y, double z) {
    const double ex = (x - xc) / sx;
    const double ey = (y - yc) / sy;
    const double ez = (z - zc) / sz;
    return std::exp(-0.5 * (ex * ex + ey * ey + ez * ez));
  };
  // Count-modulated seeding at constant macro-particle weight: each cell gets
  // round(ppc * (envelope + background)) particles, uniformly placed within
  // the cell, so per-tile particle counts follow the density profile (the
  // point of the workload) instead of being flattened into weights. One
  // sequential RNG stream over the canonical cell order keeps the seeding
  // deterministic and independent of tiling.
  const int ppc = p.ppc_x * p.ppc_y * p.ppc_z;
  MPIC_CHECK(ppc > 0);
  const double weight = p.density * g.dx * g.dy * g.dz / ppc;
  const double u_th = p.u_th * kSpeedOfLight;
  const double u_drift = p.u_drift_z * kSpeedOfLight;
  TileSet& tiles = sim->block(0).tiles;
  Rng rng(p.seed);
  for (int iz = 0; iz < g.nz; ++iz) {
    for (int iy = 0; iy < g.ny; ++iy) {
      for (int ix = 0; ix < g.nx; ++ix) {
        const double cell_env = envelope(g.x0 + (ix + 0.5) * g.dx,
                                         g.y0 + (iy + 0.5) * g.dy,
                                         g.z0 + (iz + 0.5) * g.dz);
        const int count = static_cast<int>(
            std::llround(ppc * (cell_env + p.background)));
        for (int k = 0; k < count; ++k) {
          Particle part;
          part.x = g.x0 + (ix + rng.NextDouble()) * g.dx;
          part.y = g.y0 + (iy + rng.NextDouble()) * g.dy;
          part.z = g.z0 + (iz + rng.NextDouble()) * g.dz;
          // The drift belongs to the bunch, not the background: weight it by
          // the local envelope so core particles stream at u_drift_z while
          // the far background stays thermally at rest.
          part.ux = u_th * rng.NextGaussian();
          part.uy = u_th * rng.NextGaussian();
          part.uz = u_th * rng.NextGaussian() +
                    u_drift * envelope(part.x, part.y, part.z);
          part.w = weight;
          tiles.AddParticle(part);
        }
      }
    }
  }
  ScrambleParticleOrder(tiles, p.seed ^ 0xABCD);
  sim->Initialize();
  return sim;
}

double TileImbalance(const Simulation& sim, int sid) {
  const TileSet& tiles = sim.block(sid).tiles;
  const int n = tiles.num_tiles();
  if (n == 0) return 1.0;
  int64_t max_live = 0;
  int64_t total = 0;
  for (int t = 0; t < n; ++t) {
    const int64_t live = tiles.tile(t).num_live();
    max_live = std::max(max_live, live);
    total += live;
  }
  if (total == 0) return 1.0;
  const double mean = static_cast<double>(total) / static_cast<double>(n);
  return static_cast<double>(max_live) / mean;
}

SimulationConfig MakeLwfaConfig(const LwfaWorkloadParams& p) {
  SimulationConfig cfg;
  cfg.geom.nx = p.nx;
  cfg.geom.ny = p.ny;
  cfg.geom.nz = p.nz;
  // Longitudinal resolution: ~16 cells per 0.8 um laser wavelength; transverse
  // cells 4x coarser (standard LWFA gridding).
  cfg.geom.dz = 0.8e-6 / 16.0;
  cfg.geom.dx = cfg.geom.dy = 4.0 * cfg.geom.dz;
  cfg.geom.x0 = cfg.geom.y0 = 0.0;
  cfg.geom.z0 = 0.0;
  cfg.tile_x = cfg.tile_y = p.tile;
  cfg.tile_z = p.tile_z;
  cfg.engine.variant = p.variant;
  cfg.engine.order = 1;  // paper: LWFA uses the CIC scheme
  cfg.engine.current_scheme = p.scheme;
  if (p.policy.has_value()) {
    cfg.engine.policy = *p.policy;
  }
  cfg.cfl = 0.98;
  cfg.solver = SolverKind::kCkc;

  cfg.laser_enabled = true;
  cfg.laser.a0 = p.a0;
  cfg.laser.wavelength = 0.8e-6;
  cfg.laser.waist = 0.25 * p.nx * cfg.geom.dx;
  cfg.laser.duration = 8.0e-15;
  cfg.laser.t_peak = 2.5e-14;
  cfg.laser.antenna_cell_z = 2;

  cfg.moving_window = true;
  cfg.window_velocity = kSpeedOfLight;

  ProfiledPlasmaConfig inj;
  inj.ppc_x = p.ppc_x;
  inj.ppc_y = p.ppc_y;
  inj.ppc_z = p.ppc_z;
  const double density = p.density;
  const double ramp_end = 10.0 * cfg.geom.dz;
  inj.profile = [density, ramp_end](double z) {
    if (z < ramp_end) {
      return density * std::max(0.0, z / ramp_end);
    }
    return density;
  };
  inj.u_th = 0.0;
  inj.seed = p.seed;
  cfg.species.clear();
  SpeciesConfig electrons;
  electrons.window_injection = inj;
  cfg.species.push_back(electrons);
  if (p.with_ions) {
    // Same density profile: a charge-neutral background whose ions also move.
    SpeciesConfig ions;
    ions.species = p.ion;
    ions.window_injection = inj;
    ions.engine = p.ion_engine;
    cfg.species.push_back(ions);
  }
  return cfg;
}

std::unique_ptr<Simulation> MakeLwfaSimulation(HwContext& hw,
                                               const LwfaWorkloadParams& p) {
  SimulationConfig cfg = MakeLwfaConfig(p);
  auto sim = std::make_unique<Simulation>(hw, cfg);
  for (int sid = 0; sid < sim->num_species(); ++sid) {
    MPIC_CHECK(cfg.species[static_cast<size_t>(sid)].window_injection.has_value());
    ProfiledPlasmaConfig seed_cfg =
        *cfg.species[static_cast<size_t>(sid)].window_injection;
    seed_cfg.z_cell_lo = 0;
    seed_cfg.z_cell_hi = cfg.geom.nz;
    seed_cfg.seed += static_cast<uint64_t>(sid);
    sim->SeedProfiledPlasma(sid, seed_cfg);
    ScrambleParticleOrder(sim->block(sid).tiles,
                          (p.seed ^ 0xABCD) + static_cast<uint64_t>(sid));
  }
  sim->Initialize();
  return sim;
}

std::unique_ptr<Simulation> MakeTwoStreamSimulation(HwContext& hw,
                                                    const TwoStreamParams& p) {
  MPIC_CHECK_MSG(p.u_drift > 0.0, "two-stream needs a positive beam drift");
  SimulationConfig cfg;
  cfg.geom.nx = p.nx;
  cfg.geom.ny = p.ny;
  cfg.geom.nz = p.nz;
  cfg.geom.dx = cfg.geom.dy = cfg.geom.dz = 3.0e-7;
  cfg.geom.x0 = cfg.geom.y0 = cfg.geom.z0 = 0.0;
  cfg.tile_x = cfg.tile_y = cfg.tile_z = p.tile;
  cfg.engine.variant = p.variant;
  cfg.engine.order = 1;
  cfg.cfl = 0.95;
  cfg.solver = SolverKind::kCkc;
  cfg.species.clear();
  SpeciesConfig fwd;
  fwd.species = Species{"e_beam_fwd", kElectronCharge, kElectronMass};
  SpeciesConfig bwd;
  bwd.species = Species{"e_beam_bwd", kElectronCharge, kElectronMass};
  cfg.species.push_back(fwd);
  cfg.species.push_back(bwd);
  auto sim = std::make_unique<Simulation>(hw, cfg);

  for (int sid = 0; sid < 2; ++sid) {
    UniformPlasmaConfig beam;
    beam.ppc_x = p.ppc_x;
    beam.ppc_y = p.ppc_y;
    beam.ppc_z = p.ppc_z;
    beam.density = 0.5 * p.density;  // beams split the total electron density
    beam.u_th = 0.0;
    beam.u_drift_z = sid == 0 ? p.u_drift : -p.u_drift;
    beam.seed = p.seed + static_cast<uint64_t>(sid);
    sim->SeedUniformPlasma(sid, beam);
  }

  // Seed the instability at (approximately) the fastest-growing mode,
  // k v0 ~ 0.7 omega_p, clamped to wavelengths the grid resolves.
  const double omega_p =
      std::sqrt(p.density * kElectronCharge * kElectronCharge /
                (kEpsilon0 * kElectronMass));
  const double gamma0 = std::sqrt(1.0 + p.u_drift * p.u_drift);
  const double v0 = p.u_drift * kSpeedOfLight / gamma0;
  const GridGeometry& g = sim->config().geom;
  const double lz = g.LengthZ();
  const int mode = std::clamp(
      static_cast<int>(std::lround(0.7 * omega_p / v0 * lz / (2.0 * M_PI))), 1,
      std::max(1, p.nz / 8));
  const double k = 2.0 * M_PI * mode / lz;
  const double amp = p.u_perturb * p.u_drift * kSpeedOfLight;
  for (int sid = 0; sid < 2; ++sid) {
    TileSet& tiles = sim->block(sid).tiles;
    for (int t = 0; t < tiles.num_tiles(); ++t) {
      ParticleSoA& soa = tiles.tile(t).soa();
      for (size_t i = 0; i < soa.size(); ++i) {
        soa.uz[i] += amp * std::sin(k * (soa.z[i] - g.z0));
      }
    }
    ScrambleParticleOrder(tiles, (p.seed ^ 0xABCD) + static_cast<uint64_t>(sid));
  }
  sim->Initialize();
  return sim;
}

SimulationConfig MakeCollisionalRelaxationConfig(
    const CollisionalRelaxationParams& p) {
  SimulationConfig cfg;
  cfg.geom.nx = p.nx;
  cfg.geom.ny = p.ny;
  cfg.geom.nz = p.nz;
  cfg.geom.dx = cfg.geom.dy = cfg.geom.dz = 3.0e-7;
  cfg.geom.x0 = cfg.geom.y0 = cfg.geom.z0 = 0.0;
  cfg.tile_x = cfg.tile_y = cfg.tile_z = p.tile;
  cfg.engine.variant = p.variant;
  cfg.engine.order = p.order;
  cfg.cfl = 0.95;
  cfg.solver = SolverKind::kCkc;

  // Hot electrons plus a cold electron-mass species of opposite charge: the
  // box is charge-neutral (quiet fields) and the equal masses equilibrate at
  // the fastest two-species rate.
  cfg.species.clear();
  SpeciesConfig hot;
  hot.species = Species{"hot_e", kElectronCharge, kElectronMass};
  hot.collide_self = p.intra_species;
  hot.self_coulomb_log = p.coulomb_log;
  SpeciesConfig cold;
  cold.species = Species{"cold_p", -kElectronCharge, kElectronMass};
  cold.collide_self = p.intra_species;
  cold.self_coulomb_log = p.coulomb_log;
  cfg.species.push_back(hot);
  cfg.species.push_back(cold);

  cfg.collisions.enabled = p.collisions_enabled;
  cfg.collisions.seed = p.collision_seed;
  if (p.inter_species) {
    cfg.collisions.pairs.push_back({0, 1, p.coulomb_log});
  }
  return cfg;
}

std::unique_ptr<Simulation> MakeCollisionalRelaxationSimulation(
    HwContext& hw, const CollisionalRelaxationParams& p) {
  auto sim = std::make_unique<Simulation>(hw, MakeCollisionalRelaxationConfig(p));
  for (int sid = 0; sid < sim->num_species(); ++sid) {
    UniformPlasmaConfig plasma;
    plasma.ppc_x = p.ppc_x;
    plasma.ppc_y = p.ppc_y;
    plasma.ppc_z = p.ppc_z;
    plasma.density = p.density;
    plasma.u_th = sid == 0 ? p.u_th_hot : p.u_th_cold;
    plasma.seed = p.seed + static_cast<uint64_t>(sid);
    sim->SeedUniformPlasma(sid, plasma);
    ScrambleParticleOrder(sim->block(sid).tiles,
                          (p.seed ^ 0xABCD) + static_cast<uint64_t>(sid));
  }
  sim->Initialize();
  return sim;
}

}  // namespace mpic
