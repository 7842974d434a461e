#include "src/core/simulation.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/hw/parallel_for.h"

namespace mpic {

Simulation::Simulation(HwContext& hw, const SimulationConfig& config)
    : hw_(hw),
      config_(config),
      fields_(config.geom, config.guard_cells),
      solver_(config.solver, config.geom),
      pipeline_(hw) {
  MPIC_CHECK(config.guard_cells >= 2);
  MPIC_CHECK_MSG(!config.species.empty(), "at least one species required");
  for (const SpeciesConfig& sc : config.species) {
    blocks_.push_back(std::make_unique<SpeciesBlock>(
        hw_, sc, config.geom, config.tile_x, config.tile_y, config.tile_z,
        config.engine));
  }
  const GridGeometry& g = config.geom;
  const double min_d = std::min({g.dx, g.dy, g.dz});
  dt_ = config.cfl * solver_.StableCourant() * min_d / kSpeedOfLight;
  if (config.laser_enabled) {
    laser_.emplace(config.laser);
  }
  if (config.moving_window) {
    window_.emplace(config.window_velocity, g.dz);
  }
  if (config.health.has_value()) {
    health_.emplace(*config.health);
  }
}

void Simulation::RestoreGeometry(const GridGeometry& g) {
  config_.geom = g;
  fields_.geom = g;
  for (auto& b : blocks_) {
    b->tiles.SetGeometry(g);
  }
}

int Simulation::AddSpecies(const SpeciesConfig& config) {
  MPIC_CHECK_MSG(!initialized_, "AddSpecies must precede Initialize()");
  blocks_.push_back(std::make_unique<SpeciesBlock>(
      hw_, config, config_.geom, config_.tile_x, config_.tile_y, config_.tile_z,
      config_.engine));
  config_.species.push_back(config);
  return static_cast<int>(blocks_.size()) - 1;
}

int64_t Simulation::SeedUniformPlasma(int sid, const UniformPlasmaConfig& cfg) {
  return InjectUniformPlasma(block(sid).tiles, cfg);
}

int64_t Simulation::SeedProfiledPlasma(int sid, const ProfiledPlasmaConfig& cfg) {
  return InjectProfiledPlasma(block(sid).tiles, cfg);
}

void Simulation::Initialize() {
  // The field solver interprets the shared J arrays globally: node-centered
  // (direct deposition, averaged onto the Yee faces) or face-centered
  // (Esirkepov). Species cannot mix the two into one J.
  int n_esirkepov = 0;
  for (auto& b : blocks_) {
    n_esirkepov += b->engine.esirkepov() ? 1 : 0;
  }
  MPIC_CHECK_MSG(n_esirkepov == 0 ||
                     n_esirkepov == static_cast<int>(blocks_.size()),
                 "CurrentScheme must match across species: the shared J is "
                 "either node-centered (direct) or Yee-staggered (Esirkepov)");
  staggered_j_ = n_esirkepov > 0;

  // Modeled multi-rank decomposition: slab-partition the tile grid along z
  // and engage the communication model. Every species shares the tile grid
  // (one global tile_x/y/z in the config), so one RankSet serves them all.
  if (hw_.num_ranks() > 1) {
    const TileSet& t0 = blocks_.front()->tiles;
    rank_set_.emplace(hw_.cfg(), t0.ntx(), t0.nty(), t0.ntz());
    rank_comm_.emplace(hw_, *rank_set_, t0.tile_z());
  }
  for (auto& b : blocks_) {
    b->gather_scratch.assign(static_cast<size_t>(b->tiles.num_tiles()),
                             GatherScratch{});
    if (rank_set_.has_value()) {
      b->engine.AttachRankSet(&*rank_set_);
    }
    b->engine.Initialize(b->tiles, fields_);
    // Pre-size and register the gather staging so the very first step's
    // fan-out already runs against a fully mapped address space.
    for (int t = 0; t < b->tiles.num_tiles(); ++t) {
      ParticleTile& tile = b->tiles.tile(t);
      if (tile.num_live() == 0) {
        continue;
      }
      GatherScratch& gs = b->gather_scratch[static_cast<size_t>(t)];
      gs.Resize(tile.soa().size());
      RegisterGatherRegions(hw_, MemRegionKey(b->mem_owner_id, t, 0), gs);
    }
  }
  fields_.ex.FillGuardsPeriodic();
  fields_.ey.FillGuardsPeriodic();
  fields_.ez.FillGuardsPeriodic();
  fields_.bx.FillGuardsPeriodic();
  fields_.by.FillGuardsPeriodic();
  fields_.bz.FillGuardsPeriodic();

  // Assemble the effective collision pair list: one intra pair per species
  // that opted in, then the configured inter-species pairs. Construction
  // waits until here because the module pairs through the GPMA bins the
  // engines just built.
  CollisionConfig effective = config_.collisions;
  std::vector<CollisionPairConfig> pairs;
  for (size_t sid = 0; sid < config_.species.size(); ++sid) {
    const SpeciesConfig& sc = config_.species[sid];
    if (sc.collide_self) {
      pairs.push_back({static_cast<int>(sid), static_cast<int>(sid),
                       sc.self_coulomb_log});
    }
  }
  pairs.insert(pairs.end(), effective.pairs.begin(), effective.pairs.end());
  effective.pairs = std::move(pairs);
  if (effective.enabled && !effective.pairs.empty()) {
    collide_.emplace(hw_, effective);
    std::vector<SpeciesBlock*> block_ptrs;
    block_ptrs.reserve(blocks_.size());
    for (auto& b : blocks_) {
      block_ptrs.push_back(b.get());
    }
    collide_->Initialize(std::move(block_ptrs));
  }
  initialized_ = true;
}

void Simulation::RegisterModelRegions() {
  for (auto& b : blocks_) {
    b->engine.ReregisterModelRegions(b->tiles, fields_);
    for (int t = 0; t < b->tiles.num_tiles(); ++t) {
      ParticleTile& tile = b->tiles.tile(t);
      if (tile.num_live() == 0) {
        continue;
      }
      GatherScratch& gs = b->gather_scratch[static_cast<size_t>(t)];
      gs.Resize(tile.soa().size());
      RegisterGatherRegions(hw_, MemRegionKey(b->mem_owner_id, t, 0), gs);
    }
  }
  // Collision scratch and the per-step gather/staging refreshes re-register
  // keyed at the top of every step, so they rebuild deterministically on the
  // first step after a sync point without help from here.
}

void Simulation::ModelSyncPoint() {
  MPIC_CHECK_MSG(initialized_, "ModelSyncPoint requires Initialize()");
  hw_.FlushModelCaches();
  hw_.mem().Clear();
  RegisterModelRegions();
}

int64_t Simulation::particles_pushed() const {
  int64_t sum = 0;
  for (const auto& b : blocks_) {
    sum += b->particles_pushed;
  }
  return sum;
}

void Simulation::AdvanceWindow() {
  if (!window_.has_value()) {
    return;
  }
  const int shifts = window_->StepsToShift(dt_);
  for (int s = 0; s < shifts; ++s) {
    {
      // Each rank shifts its own slab of the field arrays concurrently (the
      // slab handoff planes ride the regular halo exchange).
      ScopedRankScale rank_scale(hw_.ledger(), hw_.num_ranks());
      ShiftWindowZ(hw_, fields_);
    }
    GridGeometry g = config_.geom;
    g.z0 = fields_.geom.z0;
    config_.geom = g;
    for (size_t i = 0; i < blocks_.size(); ++i) {
      SpeciesBlock* b = blocks_[i].get();
      int64_t win_dropped = 0;
      int64_t win_injected = 0;
      b->tiles.SetGeometry(g);
      // Drop particles that fell behind the new window tail. Every removal
      // (GPMA remove, slot release) touches only the tile's own structures,
      // so tiles fan out over the modeled cores, each worker charging its own
      // ledger through RemoveParticle's HwContext argument. Drops
      // count into the census the health monitor balances at step end.
      std::vector<PaddedSlot<int64_t>> tail_drops(
          static_cast<size_t>(WorkerSlotCount(hw_)));
      ParallelForTiles(hw_, b->tiles.num_tiles(),
                       [&](HwContext& hw, int worker, int t) {
        PhaseScope phase(hw.ledger(), Phase::kOther);
        ParticleTile& tile = b->tiles.tile(t);
        const ParticleSoA& soa = tile.soa();
        const int32_t n = tile.num_slots();
        // One vector compare per batch of slots against the new tail, plus
        // the z-stream reads.
        hw.ChargeCycles(static_cast<double>((n + kVpuLanes - 1) / kVpuLanes) /
                        hw.cfg().vpu_pipes);
        for (int32_t base = 0; base < n; base += kVpuLanes) {
          const size_t batch =
              static_cast<size_t>(std::min<int32_t>(kVpuLanes, n - base));
          hw.TouchRead(soa.z.data() + base, sizeof(double) * batch);
        }
        for (int32_t pid = 0; pid < n; ++pid) {
          if (tile.IsLive(pid) && soa.z[static_cast<size_t>(pid)] < g.z0) {
            b->engine.RemoveParticle(hw, b->tiles, t, pid);
            ++tail_drops[static_cast<size_t>(worker)].value;
          }
        }
      });
      for (const PaddedSlot<int64_t>& slot : tail_drops) {
        win_dropped += slot.value;
      }
      // Refill the freshly exposed head slab: serial generation into per-tile
      // injection lists (the RNG sequence stays the canonical global cell
      // order), then a tile-parallel insertion sweep mirroring the
      // mover-delivery pattern — every AddParticle and GPMA insert touches
      // only the destination tile's structures, and each tile consumes its
      // list in generation order, so slot assignment is bit-identical to the
      // serial injector for any core/thread count.
      if (b->window_injection.has_value()) {
        ProfiledPlasmaConfig inj = *b->window_injection;
        inj.z_cell_lo = g.nz - 1;
        inj.z_cell_hi = g.nz;
        inj.seed = injection_seed_++;
        const std::vector<std::vector<Particle>> lists =
            BuildProfiledPlasmaTileLists(b->tiles, inj);
        for (const std::vector<Particle>& list : lists) {
          win_injected += static_cast<int64_t>(list.size());
        }
        std::vector<PaddedSlot<int64_t>> rebuilds(
            static_cast<size_t>(WorkerSlotCount(hw_)));
        ParallelForTiles(
            hw_, b->tiles.num_tiles(), [&](HwContext& hw, int worker, int t) {
              ParticleTile& tile = b->tiles.tile(t);
              for (const Particle& p : lists[static_cast<size_t>(t)]) {
                const int32_t pid = tile.AddParticle(p);
                b->engine.NotifyParticleAdded(
                    hw, b->tiles, t, pid,
                    &rebuilds[static_cast<size_t>(worker)].value);
              }
            });
        for (const PaddedSlot<int64_t>& slot : rebuilds) {
          b->engine.AccumulateInjectionRebuilds(slot.value);
        }
      }
      // AdvanceWindow runs after RunParticleStages filled the species stats,
      // so the tail drops and head refills land in the same step's census.
      if (i < last_sim_stats_.species.size()) {
        last_sim_stats_.species[i].dropped += win_dropped;
        last_sim_stats_.species[i].injected += win_injected;
      }
    }
  }
}

void Simulation::Step() {
  StepPipelineInputs in;
  in.dt = dt_;
  in.drop_behind_window = config_.moving_window;
  in.step = step_count_;
  in.collisions = collide_.has_value() ? &*collide_ : nullptr;
  in.health = health_.has_value() ? &*health_ : nullptr;
  in.injector = injector_;
  in.rank_comm = rank_comm_.has_value() ? &*rank_comm_ : nullptr;
  pipeline_.RunParticleStages(in, blocks_, fields_, &last_sim_stats_);
  last_step_stats_ = last_sim_stats_.Aggregate();

  if (laser_.has_value()) {
    laser_->Drive(hw_, fields_, time_);
  }
  AdvanceWindow();

  // Census after the window drop/refill, so `live` reflects the step's end
  // state even on shift steps.
  for (size_t i = 0; i < blocks_.size(); ++i) {
    last_sim_stats_.species[i].live = blocks_[i]->tiles.TotalLive();
  }

  {
    // The field solve is a serial sweep on one rank; on a multi-rank machine
    // each rank sweeps its own z-slab concurrently, so the modeled charge
    // scales by the rank count. The boundary planes each slab needs from its
    // neighbors are settled by the halo exchange below.
    ScopedRankScale rank_scale(hw_.ledger(), hw_.num_ranks());
    solver_.UpdateB(hw_, fields_, 0.5 * dt_);
    solver_.UpdateE(hw_, fields_, dt_, staggered_j_);
    solver_.UpdateB(hw_, fields_, 0.5 * dt_);
  }
  if (rank_comm_.has_value()) {
    rank_comm_->ExchangeFieldHalos(fields_);
  }

  // Step epilogue: the field/census/energy sentinels inspect the post-solve
  // state the next step will consume.
  if (health_.has_value()) {
    health_->FinishStep(*this, &last_sim_stats_);
  }

  time_ += dt_;
  ++step_count_;
}

void Simulation::Run(int steps) {
  for (int s = 0; s < steps; ++s) {
    Step();
  }
}

}  // namespace mpic
