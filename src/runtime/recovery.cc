#include "src/runtime/recovery.h"

#include <cmath>

#include "src/common/check.h"
#include "src/core/simulation.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/health.h"

namespace mpic {

ResilientRunner::ResilientRunner(Simulation* sim, const RecoveryConfig& cfg)
    : sim_(sim), cfg_(cfg) {
  MPIC_CHECK_MSG(sim_->health_monitor() != nullptr,
                 "ResilientRunner requires Simulation::EnableHealth()");
}

void ResilientRunner::TakeCheckpoint() {
  CheckpointWriteOptions opts;
  opts.charge = cfg_.charge_model ? &sim_->hw() : nullptr;
  const CheckpointStatus st = SaveCheckpoint(*sim_, &checkpoint_, opts);
  MPIC_CHECK_MSG(st.ok, "in-memory checkpoint of a live simulation failed");
  checkpoint_step_ = sim_->step_count();
  ++stats_.checkpoints_taken;
}

bool ResilientRunner::Run(int steps) {
  const int64_t target = sim_->step_count() + steps;
  sim_->SetFaultInjector(injector_);
  bool ok = true;
  while (sim_->step_count() < target) {
    // Checkpoint believed-good state when due. After a rollback the loop
    // lands back on the checkpointed step; checkpoint_step_ suppresses
    // re-serializing the identical image.
    if (cfg_.checkpoint_interval > 0 &&
        sim_->step_count() % cfg_.checkpoint_interval == 0 &&
        checkpoint_step_ != sim_->step_count()) {
      TakeCheckpoint();
    }
    if (injector_ != nullptr) {
      injector_->ApplyPreStep(sim_);
    }
    sim_->Step();
    const HealthStepReport& rep = sim_->last_sim_stats().health;
    if (rep.checked && rep.tripped()) {
      if (!Recover(rep.Summary())) {
        ok = false;
        break;
      }
    }
  }
  sim_->SetFaultInjector(nullptr);
  return ok;
}

bool ResilientRunner::Recover(const std::string& sentinel_summary) {
  if (stats_.rollbacks + stats_.degraded_recoveries >= cfg_.max_recoveries) {
    return false;
  }
  RecoveryEvent ev;
  // Step() already advanced the counter past the poisoned step.
  ev.trip_step = sim_->step_count() - 1;
  ev.sentinel = sentinel_summary;

  if (checkpoint_step_ >= 0) {
    CheckpointReadOptions opts;
    opts.charge = cfg_.charge_model ? &sim_->hw() : nullptr;
    if (!RestoreCheckpoint(sim_, checkpoint_, opts)) {
      return false;  // the in-memory image itself is damaged: unrecoverable
    }
    ev.restored_step = sim_->step_count();
    ev.steps_lost = ev.trip_step + 1 - ev.restored_step;
    stats_.steps_replayed += ev.steps_lost;
    ++stats_.rollbacks;
  } else if (cfg_.allow_degraded) {
    ScrubSimulation(sim_);
    ev.degraded = true;
    ++stats_.degraded_recoveries;
  } else {
    return false;
  }
  // Either way the census/energy/Gauss baselines describe a discarded
  // timeline now.
  sim_->health_monitor()->Rebaseline(*sim_);
  stats_.events.push_back(std::move(ev));
  return true;
}

int64_t ScrubSimulation(Simulation* sim) {
  int64_t repaired = 0;
  const HealthMonitor* monitor = sim->health_monitor();
  const double max_field =
      monitor != nullptr ? monitor->config().max_field_magnitude : 1e30;

  FieldSet& f = sim->fields();
  for (FieldArray* a : {&f.ex, &f.ey, &f.ez, &f.bx, &f.by, &f.bz, &f.jx,
                        &f.jy, &f.jz}) {
    for (double& v : a->vec()) {
      if (!std::isfinite(v) || std::abs(v) > max_field) {
        v = 0.0;
        ++repaired;
      }
    }
  }

  for (int sid = 0; sid < sim->num_species(); ++sid) {
    SpeciesBlock& b = sim->block(sid);
    const GridGeometry& g = b.tiles.geom();
    for (int t = 0; t < b.tiles.num_tiles(); ++t) {
      ParticleTile& tile = b.tiles.tile(t);
      ParticleSoA& soa = tile.soa();
      const int32_t n = tile.num_slots();
      for (int32_t pid = 0; pid < n; ++pid) {
        if (!tile.IsLive(pid)) {
          continue;
        }
        const auto i = static_cast<size_t>(pid);
        const bool finite =
            std::isfinite(soa.x[i]) && std::isfinite(soa.y[i]) &&
            std::isfinite(soa.z[i]) && std::isfinite(soa.ux[i]) &&
            std::isfinite(soa.uy[i]) && std::isfinite(soa.uz[i]) &&
            std::isfinite(soa.w[i]);
        if (!finite) {
          // Poisoned beyond repair; drop the macro-particle. The engine keeps
          // its sort structures consistent with the removal.
          b.engine.RemoveParticle(sim->hw(), b.tiles, t, pid);
          ++repaired;
          continue;
        }
        // Finite lanes can still be poisoned: a momentum inflated past
        // ~1e154 overflows u^2, so the particle's kinetic energy — and with
        // it the energy sentinel's total — evaluates to inf on every
        // subsequent step, and degraded mode could never re-arm. Evaluate
        // the same contribution the sentinel uses and drop on overflow.
        const double c2 = kSpeedOfLight * kSpeedOfLight;
        const double u2 = soa.ux[i] * soa.ux[i] + soa.uy[i] * soa.uy[i] +
                          soa.uz[i] * soa.uz[i];
        const double kinetic =
            soa.w[i] * (std::sqrt(1.0 + u2 / c2) - 1.0) * b.species.mass * c2;
        if (!std::isfinite(kinetic)) {
          b.engine.RemoveParticle(sim->hw(), b.tiles, t, pid);
          ++repaired;
          continue;
        }
        if (!g.InDomain(soa.x[i], soa.y[i], soa.z[i])) {
          soa.x[i] = g.WrapX(soa.x[i]);
          soa.y[i] = g.WrapY(soa.y[i]);
          soa.z[i] = g.WrapZ(soa.z[i]);
          if (!g.InDomain(soa.x[i], soa.y[i], soa.z[i])) {
            // fmod rounding can pin an extreme value to the upper domain
            // edge; such a particle has no valid cell, so drop it.
            b.engine.RemoveParticle(sim->hw(), b.tiles, t, pid);
          }
          ++repaired;
        }
      }
    }
    // Quarantined tiles skipped their sort scan while particles moved, so the
    // GPMA bins are stale; a full re-initialize (global sort + region
    // registration) restores a clean deterministic layout. Degraded recovery
    // has already abandoned bit-continuity, so the re-sort costs nothing
    // extra in guarantees.
    b.engine.Initialize(b.tiles, sim->fields());
  }
  return repaired;
}

}  // namespace mpic
