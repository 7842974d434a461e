// Binary Monte-Carlo Coulomb collisions after Takizuka & Abe (1977), riding
// the GPMA cell sort.
//
// The incremental sort keeps every tile cell-ordered each step — exactly the
// per-cell particle grouping a binary collision operator needs. Per step the
// module iterates each tile's cells through the GPMA bins, shuffles the cell's
// particles with a counter-based per-cell stream, forms Takizuka-Abe pairs
// (src/collide/pairing.h), and rotates each pair's relative proper velocity by
// a sampled scattering angle:
//
//   delta = tan(theta/2) ~ N(0, <delta^2>),
//   <delta^2> = q_a^2 q_b^2 n lnLambda dt / (8 pi eps0^2 m_ab^2 g^3),
//
// falling back to an isotropic angle when <delta^2> exceeds 1 (the strongly
// collisional / cold limit, where the small-angle expansion breaks down). The
// pair update applies one impulse p = mu_w * dg with the weight-aware reduced
// mass mu_w = w_a m_a w_b m_b / (w_a m_a + w_b m_b), so weighted momentum
// sum(w m u) is conserved exactly per pair for arbitrary macro-weights (for
// equal weights this is exactly TA; for unequal weights it trades the exact
// per-particle scattering statistics for exact conservation). The operator is
// non-relativistic in the proper velocities (u = gamma v ~ v for the thermal
// speeds the workloads run), so sum(w m u) and sum(w m |u|^2)/2 are invariants
// and the relativistic kinetic energy is conserved to O(u^2/c^2) of the
// exchanged energy.
//
// Determinism: every cell draws from Rng::ForStream(seed, step, cell, pair),
// a pure function of the keys — independent of tile partition, core count,
// and thread count. Cells only touch their own
// bin's particles, so tiles fan out over the modeled cores like every other
// tile-parallel stage; all cost is charged under Phase::kCollide and the
// pairing scratch registers with the MemMap under stable keys so modeled
// cycles stay bit-deterministic across runs.

#ifndef MPIC_SRC_COLLIDE_COLLISION_H_
#define MPIC_SRC_COLLIDE_COLLISION_H_

#include <cstdint>
#include <vector>

#include "src/collide/pairing.h"
#include "src/core/species_block.h"
#include "src/hw/hw_context.h"

namespace mpic {

// One colliding species pair. species_a == species_b selects intra-species
// (TA even/triplet) pairing; distinct ids select inter-species wrap-around
// pairing. Both species must run a sort mode that keeps the GPMA valid
// (incremental or global-each-step — the unsorted baselines have no per-cell
// particle lists to pair from).
struct CollisionPairConfig {
  int species_a = 0;
  int species_b = 0;
  double coulomb_log = 10.0;
};

struct CollisionConfig {
  // Master switch: with false the module is never constructed, regardless of
  // the pair list (handy for with/without ablations of the same workload).
  bool enabled = true;
  uint64_t seed = 0xC0111DE5ull;
  // Inter-species pairs (intra-species pairs are usually surfaced per species
  // via SpeciesConfig::collide_self; listing {s, s} here is equivalent).
  std::vector<CollisionPairConfig> pairs;
};

// Per-step census of the collision stage (summed over all configured pairs).
struct CollisionStepStats {
  int64_t pairs = 0;     // pairs scattered
  int64_t covered = 0;   // particle pairing incidences: for each configured
                         // pair, every particle in a cell that produced pairs
                         // counts once (triplet/wrap-around reuse included)
  int64_t unpaired = 0;  // pairing incidences skipped: lone intra particles
                         // and cells whose partner species bin is empty
};

// Rotates the pair's relative proper velocity g = u1 - u2 by scattering angle
// theta (given as cos/sin) and azimuth phi, then applies the equal-and-
// opposite impulse with the weight-aware reduced mass. Pure function, exposed
// for the conservation unit tests.
void ScatterPair(double cos_theta, double sin_theta, double phi, double m1,
                 double w1, double m2, double w2, double u1[3], double u2[3]);

class CollisionModule {
 public:
  CollisionModule(HwContext& hw, const CollisionConfig& config);

  // Binds the block registry (pointers must stay valid for the module's
  // lifetime — Simulation's registry is frozen once initialized), validates
  // the pair list against it (ids in range, GPMA kept valid by both species'
  // sort modes, identical tile decompositions), and sizes the per-tile
  // pairing scratch. Call after the engines' Initialize.
  void Initialize(std::vector<SpeciesBlock*> blocks);

  // Applies one collision step to the bound registry: one tile-parallel
  // fan-out covering every configured pair, charged under Phase::kCollide.
  // `step` keys the RNG streams (pass the simulation's step count); `dt` is
  // the full particle step in seconds.
  void Apply(int64_t step, double dt);

  const CollisionConfig& config() const { return config_; }
  const CollisionStepStats& last_step_stats() const { return last_stats_; }

 private:
  struct TileScratch {
    std::vector<int32_t> perm_a;  // shuffled pid list of the A-side bin
    std::vector<int32_t> perm_b;  // shuffled pid list of the B-side bin
    std::vector<CellPair> pairs;  // pair list of the current cell
  };

  // Collides every cell of tile `t` for one configured pair, charging `hw`.
  void CollideTile(HwContext& hw, const CollisionPairConfig& pair, int pair_index,
                   double coeff, SpeciesBlock& a, SpeciesBlock& b, int t,
                   int64_t step, double dt, CollisionStepStats* stats);

  HwContext& hw_;
  CollisionConfig config_;
  std::vector<SpeciesBlock*> blocks_;  // bound registry (not owned)
  // Key base for the pairing scratch's keyed registrations (tile t uses
  // MemRegionKey(mem_owner_id_, t, 0..1)).
  uint64_t mem_owner_id_;
  // Per-pair precomputed q_a^2 q_b^2 lnLambda / (8 pi eps0^2 m_ab^2).
  std::vector<double> pair_coeff_;
  std::vector<TileScratch> scratch_;  // per tile
  CollisionStepStats last_stats_;
};

}  // namespace mpic

#endif  // MPIC_SRC_COLLIDE_COLLISION_H_
