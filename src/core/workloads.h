// The paper's two evaluation workloads (Table 4), scaled to simulator size,
// plus a classic two-stream instability scenario exercising the multi-species
// core.
//
// Uniform plasma: homogeneous Maxwellian plasma in a fully periodic box — the
// controlled kernel-efficiency workload (Figures 1, 8, 10; Tables 1-3).
// LWFA: a Gaussian laser driving a wake in a cold background plasma with a
// moving window along z — the realistic application workload (Figure 9).
// Two-stream: two counter-streaming electron beams whose seeded perturbation
// grows at the textbook rate — the multi-species validation workload.
//
// Both paper workloads accept a species list (default: electrons only, which
// preserves the single-species results bit-for-bit); the LWFA workload can add
// a mobile-ion background with `with_ions`.
//
// Grid sizes default to simulator scale (DESIGN.md Sec. 2); the PPC sweep and
// all algorithmic parameters match the paper.

#ifndef MPIC_SRC_CORE_WORKLOADS_H_
#define MPIC_SRC_CORE_WORKLOADS_H_

#include <memory>
#include <vector>

#include "src/core/simulation.h"

namespace mpic {

// Per-species seeding/engine overrides for the uniform workload. Zero (or
// negative, for u_th) values inherit the workload-wide base. Because the
// injector fixes macro-particle weight as density * cell_volume / PPC, a
// species seeded with a lower PPC at the same physical density automatically
// gets proportionally heavier macro-particles — the standard "few heavy
// macro-ions, many light macro-electrons" setup.
struct UniformSpeciesParams {
  Species species = Species::Electron();
  int ppc_x = 0, ppc_y = 0, ppc_z = 0;  // 0 = workload base ppc
  double density = 0.0;                 // 0 = workload base density
  double u_th = -1.0;                   // < 0 = workload base u_th
  // Per-species engine overrides, merged onto the workload-wide engine config
  // like the fields above (e.g. kHybridNoSort for slow heavy ions). Unset
  // values inherit the workload's variant/order/scheme.
  std::optional<DepositVariant> variant;
  int order = 0;  // 0 = workload base order
  std::optional<CurrentScheme> scheme;
};

struct UniformWorkloadParams {
  int nx = 16, ny = 8, nz = 8;
  // Particles per cell per dimension; paper sweeps [1,1,1] .. [8,4,4].
  int ppc_x = 4, ppc_y = 4, ppc_z = 4;
  int order = 1;  // 1 (CIC) or 3 (QSP); the Esirkepov scheme also takes 2 (TSC)
  DepositVariant variant = DepositVariant::kFullOpt;
  // Direct (paper configuration) or charge-conserving Esirkepov deposition.
  CurrentScheme scheme = CurrentScheme::kDirect;
  double density = 1e25;  // m^-3, per species
  double u_th = 0.01;     // thermal proper velocity / c
  int tile = 8;           // particles.tile_size (cubic)
  uint64_t seed = 42;
  // Workload-wide re-sort policy override (all triggers, including the
  // adaptive performance trigger, restore bit-exactly: checkpoint v2 carries
  // the trigger's throughput baselines, and the `model_sync` handshake makes
  // the post-restore modeled throughput input identical too — see
  // runtime/checkpoint.h).
  std::optional<ResortPolicyConfig> policy;
  // Every listed species is seeded with the same density/PPC/u_th (e.g.
  // {Electron, Proton} gives a neutral two-species plasma).
  std::vector<Species> species = {Species::Electron()};
  // When non-empty, takes precedence over `species` and carries per-species
  // PPC/density/u_th and engine overrides.
  std::vector<UniformSpeciesParams> species_params;
};

SimulationConfig MakeUniformConfig(const UniformWorkloadParams& p);

// Creates, seeds, and initializes a uniform-plasma simulation.
std::unique_ptr<Simulation> MakeUniformSimulation(HwContext& hw,
                                                  const UniformWorkloadParams& p);

// Bunched beam: a dense 3D-Gaussian electron bunch over a thin uniform
// background in a fully periodic box. Physically this is a beam-driven
// (PWFA-style) drive bunch without a witness; computationally it is the
// load-imbalance stress workload. Unlike the profiled injector (which holds
// PPC constant and encodes density in macro-particle weight), this workload
// modulates the per-cell particle *count* by the density profile at constant
// weight, so a handful of tiles own most of the particle work: the static
// contiguous partition hands nearly all of it to one modeled core while the
// cost-guided work-stealing scheduler spreads it. Parameters default to far
// above 4:1 per-tile particle imbalance (max tile / mean tile).
struct BunchedBeamParams {
  int nx = 16, ny = 16, nz = 16;
  // Particles per cell per dimension *at the bunch peak*.
  int ppc_x = 8, ppc_y = 8, ppc_z = 8;
  int order = 1;
  DepositVariant variant = DepositVariant::kFullOpt;
  CurrentScheme scheme = CurrentScheme::kDirect;
  double density = 1e25;      // bunch peak density, m^-3
  double background = 0.002;  // background density as a fraction of the peak
  // Bunch extent. Wide enough that the bunch spans several tiles per axis (a
  // single indivisible mega-tile would floor the balanced makespan at that
  // tile's own cost), narrow enough that the heavy tiles stay inside one
  // contiguous z-slab of tile indices — the static partition's worst case.
  double sigma_frac = 0.10;       // bunch sigma_z as a fraction of box length
  double sigma_perp_frac = 0.18;  // bunch sigma_x/y as a fraction of box width
  // Bunch center as a fraction of each axis; 0.375 on a 16-cell axis with
  // 4-cell tiles puts the bunch at a tile center, maximizing concentration.
  double center_frac = 0.375;
  double u_drift_z = 0.2;  // bunch proper velocity / c (background is cold)
  double u_th = 0.01;      // thermal spread / c (bunch and background)
  int tile = 4;
  uint64_t seed = 42;
  // See UniformWorkloadParams::policy.
  std::optional<ResortPolicyConfig> policy;
};

SimulationConfig MakeBunchedBeamConfig(const BunchedBeamParams& p);
std::unique_ptr<Simulation> MakeBunchedBeamSimulation(HwContext& hw,
                                                      const BunchedBeamParams& p);

// Per-tile live-particle imbalance of a seeded simulation: max over tiles
// divided by mean over tiles (1.0 = perfectly uniform). The bunched-beam
// bench asserts >= 4 here before measuring scheduler gains.
double TileImbalance(const Simulation& sim, int sid);

struct LwfaWorkloadParams {
  int nx = 16, ny = 16, nz = 64;
  int ppc_x = 2, ppc_y = 2, ppc_z = 2;
  DepositVariant variant = DepositVariant::kFullOpt;
  // Direct (paper configuration) or charge-conserving Esirkepov deposition.
  CurrentScheme scheme = CurrentScheme::kDirect;
  double density = 2e23;  // background plasma density, m^-3
  double a0 = 4.0;
  int tile = 8;
  int tile_z = 16;  // paper uses elongated tiles (8 x 8 x 64) for LWFA
  uint64_t seed = 42;
  // See UniformWorkloadParams::policy.
  std::optional<ResortPolicyConfig> policy;
  // Adds a mobile-ion background species with the same density profile
  // (charge-neutral plasma; ion motion matters for long pulses / heavy drivers).
  bool with_ions = false;
  Species ion = Species::Proton();
  // Engine override for the ion species. Heavy ions barely change cells per
  // step, so kHybridNoSort or a long fixed re-sort interval avoids paying GPMA
  // maintenance for a species that never churns.
  std::optional<EngineConfig> ion_engine;
};

SimulationConfig MakeLwfaConfig(const LwfaWorkloadParams& p);
std::unique_ptr<Simulation> MakeLwfaSimulation(HwContext& hw,
                                               const LwfaWorkloadParams& p);

// Two-stream instability: two electron beams counter-streaming along z at
// +/- u_drift on a neutralizing immobile background, with a seeded sinusoidal
// velocity perturbation at (roughly) the fastest-growing resolved mode. Field
// energy must grow exponentially until trapping saturates it.
struct TwoStreamParams {
  int nx = 4, ny = 4, nz = 32;
  int ppc_x = 2, ppc_y = 2, ppc_z = 2;
  DepositVariant variant = DepositVariant::kFullOpt;
  double density = 1e25;   // total electron density (m^-3), split over the beams
  double u_drift = 0.05;   // beam proper velocity / c
  double u_perturb = 5e-3; // seeded velocity perturbation amplitude / u_drift
  int tile = 4;
  uint64_t seed = 42;
};

std::unique_ptr<Simulation> MakeTwoStreamSimulation(HwContext& hw,
                                                    const TwoStreamParams& p);

// Collisional two-temperature relaxation: a hot electron population and a
// cold equal-mass population of opposite charge (a charge-neutral "pair
// plasma", so the equal masses exchange energy at the full rate and the box
// stays field-quiet), coupled by Takizuka-Abe intra- and inter-species
// Coulomb collisions. The temperatures must converge monotonically toward a
// common value; with u_th_hot == u_th_cold the plasma is in equilibrium and
// the distribution moments must stay stationary.
struct CollisionalRelaxationParams {
  int nx = 8, ny = 8, nz = 8;
  int ppc_x = 2, ppc_y = 2, ppc_z = 2;
  int order = 1;
  DepositVariant variant = DepositVariant::kFullOpt;
  double density = 1e25;   // m^-3, per species
  double u_th_hot = 0.02;  // hot-species thermal proper velocity / c
  double u_th_cold = 0.005;
  // Physical values are ~10-20; the relaxation rate is linear in it, so tests
  // crank it to compress the equilibration into a short run.
  double coulomb_log = 10.0;
  bool intra_species = true;  // hot-hot and cold-cold pairs
  bool inter_species = true;  // hot-cold pair
  // Same workload without the collision operator (ablation baseline).
  bool collisions_enabled = true;
  uint64_t collision_seed = 0xC0111DE5ull;
  int tile = 4;
  uint64_t seed = 42;
};

SimulationConfig MakeCollisionalRelaxationConfig(
    const CollisionalRelaxationParams& p);
std::unique_ptr<Simulation> MakeCollisionalRelaxationSimulation(
    HwContext& hw, const CollisionalRelaxationParams& p);

// Randomly permutes the particle order within every tile. Workload builders
// apply this after seeding so that the *memory order* of particles represents
// the steady-state disorder of a long-running simulation rather than the
// perfectly cell-ordered injection lattice; sorting variants then re-establish
// order through their initial global sort, while the never-sorting baselines
// run unsorted — exactly the contrast the paper measures.
void ScrambleParticleOrder(TileSet& tiles, uint64_t seed);

}  // namespace mpic

#endif  // MPIC_SRC_CORE_WORKLOADS_H_
