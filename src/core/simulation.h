// Simulation: the full PIC loop with MatrixPIC deposition embedded, mirroring
// the paper's WarpX configuration (Sec. 5.2): CKC Maxwell solver, Boris pusher,
// CIC/QSP shapes, periodic uniform-plasma or moving-window LWFA workloads.
//
// Particles are organized as a registry of SpeciesBlocks (electrons, ions,
// counter-streaming beams, ...). The per-step particle schedule lives in
// core/step_pipeline.h: every species runs as two fused cache-resident tile
// passes (gather -> push -> boundaries -> sort scan, then staging -> kernel
// -> colored reduction) with the serial mover delivery as the barrier between
// them. The FieldSet is shared, with each species' engine accumulating into
// the same J arrays (zeroed once per step, guard-folded once after all
// species).
//
// Step order (standard leapfrog PIC cycle):
//   zero J -> per species: fused pass 1 -> delivery barrier -> fused pass 2
//   -> shared guard fold -> collisions (when configured)
//   -> laser drive -> moving window -> B half-step, E full-step, B half-step.
//
// All stages charge the shared HwContext, so total wall time and the per-phase
// breakdown of Figures 1 and 8-10 come straight off the ledger.

#ifndef MPIC_SRC_CORE_SIMULATION_H_
#define MPIC_SRC_CORE_SIMULATION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/collide/collision.h"
#include "src/core/deposition_engine.h"
#include "src/core/rank_comm.h"
#include "src/core/species_block.h"
#include "src/core/step_pipeline.h"
#include "src/grid/field_set.h"
#include "src/hw/hw_context.h"
#include "src/laser/laser.h"
#include "src/particles/injector.h"
#include "src/particles/species.h"
#include "src/particles/tile_set.h"
#include "src/push/field_gather.h"
#include "src/runtime/health.h"
#include "src/solver/maxwell_solver.h"
#include "src/solver/moving_window.h"

namespace mpic {

class FaultInjector;

struct SimulationConfig {
  GridGeometry geom;
  int tile_x = 8, tile_y = 8, tile_z = 8;  // particles.tile_size
  // Species registry; more can be added with Simulation::AddSpecies before
  // Initialize(). Defaults to a single electron species.
  std::vector<SpeciesConfig> species = {SpeciesConfig{}};
  EngineConfig engine;
  double cfl = 0.95;
  SolverKind solver = SolverKind::kCkc;
  int guard_cells = 2;

  // Binary Monte-Carlo Coulomb collisions (src/collide/collision.h). The
  // effective pair list is this config's inter-species pairs plus one intra
  // pair per species with SpeciesConfig::collide_self; the module runs only
  // when `collisions.enabled` and that list is non-empty.
  CollisionConfig collisions;

  // LWFA options.
  bool laser_enabled = false;
  LaserConfig laser;
  bool moving_window = false;
  double window_velocity = kSpeedOfLight;

  // Per-step health sentinels (src/runtime/health.h). Disabled by default —
  // the guards and step-epilogue scans cost modeled cycles (Phase::kHealth)
  // and bench_abl_resilience gates their overhead.
  std::optional<HealthConfig> health;
};

class Simulation {
 public:
  Simulation(HwContext& hw, const SimulationConfig& config);

  // Registers an additional species (before Initialize). Returns its id, the
  // index into the block registry.
  int AddSpecies(const SpeciesConfig& config);

  int num_species() const { return static_cast<int>(blocks_.size()); }
  SpeciesBlock& block(int sid) { return *blocks_[static_cast<size_t>(sid)]; }
  const SpeciesBlock& block(int sid) const {
    return *blocks_[static_cast<size_t>(sid)];
  }
  const Species& species(int sid) const { return block(sid).species; }

  // Particle seeding of species `sid` (before Initialize).
  int64_t SeedUniformPlasma(int sid, const UniformPlasmaConfig& cfg);
  int64_t SeedProfiledPlasma(int sid, const ProfiledPlasmaConfig& cfg);

  // Builds the sorting structures and registers memory regions. Call once
  // after seeding, before the first Step().
  void Initialize();

  void Step();
  void Run(int steps);

  double dt() const { return dt_; }
  double time() const { return time_; }
  int64_t step_count() const { return step_count_; }

  // Species-0 accessors, kept for the (common) single-species call sites.
  TileSet& tiles() { return block(0).tiles; }
  DepositionEngine& engine() { return block(0).engine; }

  FieldSet& fields() { return fields_; }
  const FieldSet& fields() const { return fields_; }
  HwContext& hw() { return hw_; }
  const HwContext& hw() const { return hw_; }
  const SimulationConfig& config() const { return config_; }
  bool initialized() const { return initialized_; }
  // True when the species run the Esirkepov scheme (J is Yee-staggered).
  bool staggered_j() const { return staggered_j_; }
  // The collision module, or null when no collisions are configured.
  const CollisionModule* collisions() const {
    return collide_.has_value() ? &*collide_ : nullptr;
  }
  // Modeled multi-rank decomposition (src/hw/rank_topology.h). Both are
  // engaged at Initialize() when MachineConfig::num_ranks > 1 and null
  // otherwise. The RankSet is the z-slab tile partition; RankComm charges the
  // per-step halo exchanges and particle migration under Phase::kComm.
  const RankSet* rank_set() const {
    return rank_set_.has_value() ? &*rank_set_ : nullptr;
  }
  RankComm* rank_comm() { return rank_comm_.has_value() ? &*rank_comm_ : nullptr; }
  const RankComm* rank_comm() const {
    return rank_comm_.has_value() ? &*rank_comm_ : nullptr;
  }
  // Aggregate engine stats of the last step (sums across species).
  const EngineStepStats& last_step_stats() const { return last_step_stats_; }
  // Per-species breakdown of the last step.
  const SimStepStats& last_sim_stats() const { return last_sim_stats_; }
  // Total particle pushes across all species and steps.
  int64_t particles_pushed() const;

  // ---- Resilience layer (src/runtime/) --------------------------------------

  // Enables the per-step health sentinels. Equivalent to setting
  // SimulationConfig::health before construction; callable any time.
  void EnableHealth(const HealthConfig& cfg) { health_.emplace(cfg); }
  // The monitor, or null when sentinels are disabled.
  HealthMonitor* health_monitor() {
    return health_.has_value() ? &*health_ : nullptr;
  }
  const HealthMonitor* health_monitor() const {
    return health_.has_value() ? &*health_ : nullptr;
  }
  // Hooks a deterministic fault injector into the step schedule (the mover-
  // drop faults need a mid-step site). Null detaches. Not owned.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  // Checkpoint plumbing (src/runtime/checkpoint.h). The injection seed and
  // window accumulator are the only non-structural scalars a bit-exact
  // restart needs beyond the clock.
  uint64_t injection_seed() const { return injection_seed_; }
  void set_injection_seed(uint64_t seed) { injection_seed_ = seed; }
  double window_accumulated() const {
    return window_.has_value() ? window_->accumulated() : 0.0;
  }
  void set_window_accumulated(double accumulated) {
    if (window_.has_value()) {
      window_->set_accumulated(accumulated);
    }
  }
  void RestoreClock(int64_t step, double time) {
    step_count_ = step;
    time_ = time;
  }
  // Model-state synchronization point for cycle-exact restore: flushes every
  // modeled cache (main, workers, ranks), clears the logical address map, and
  // replays the full region-registration sequence. Because the logical layout
  // of a MemMap is a pure function of its registration order, a saving run
  // and its restored twin that both sync at the same execution point continue
  // with bit-identical cache/address model state — which is what makes the
  // restored ledger cycles match a never-interrupted run exactly. Invoked by
  // the checkpoint layer when `model_sync` is requested; callable any time
  // after Initialize().
  void ModelSyncPoint();
  // Reinstates a checkpointed geometry (the moving window shifts z0) across
  // the config, the field set, and every species' tile set.
  void RestoreGeometry(const GridGeometry& g);

 private:
  void AdvanceWindow();
  // Replays the deterministic region-registration sequence (fields, per-tile
  // staging/rhocell/Esirkepov scratch, gather staging) against the current
  // address map. Shared by Initialize() and ModelSyncPoint().
  void RegisterModelRegions();

  HwContext& hw_;
  SimulationConfig config_;
  FieldSet fields_;
  std::vector<std::unique_ptr<SpeciesBlock>> blocks_;
  MaxwellSolver solver_;
  StepPipeline pipeline_;
  std::optional<CollisionModule> collide_;
  std::optional<RankSet> rank_set_;
  std::optional<RankComm> rank_comm_;
  std::optional<LaserAntenna> laser_;
  std::optional<MovingWindow> window_;
  std::optional<HealthMonitor> health_;
  FaultInjector* injector_ = nullptr;
  EngineStepStats last_step_stats_;
  SimStepStats last_sim_stats_;

  bool initialized_ = false;
  // True when the species run the Esirkepov scheme: J is Yee-staggered and
  // the solver consumes it without node->face averaging. Set at Initialize
  // (the scheme must match across species).
  bool staggered_j_ = false;
  double dt_ = 0.0;
  double time_ = 0.0;
  int64_t step_count_ = 0;
  uint64_t injection_seed_ = 1000;
};

}  // namespace mpic

#endif  // MPIC_SRC_CORE_SIMULATION_H_
