#include "src/runtime/health.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/core/diagnostics.h"
#include "src/core/simulation.h"
#include "src/particles/species.h"

namespace mpic {

const char* SentinelStatusName(SentinelStatus s) {
  switch (s) {
    case SentinelStatus::kDisabled:
      return "off";
    case SentinelStatus::kOk:
      return "ok";
    case SentinelStatus::kTripped:
      return "TRIP";
  }
  return "?";
}

std::string HealthStepReport::Summary() const {
  if (!checked) {
    return "health: off";
  }
  std::ostringstream os;
  os << "health: " << (tripped() ? "TRIP" : "ok");
  auto item = [&os](const char* name, const SentinelReport& r) {
    if (r.status == SentinelStatus::kDisabled) {
      return;
    }
    os << ' ' << name << '=' << SentinelStatusName(r.status);
  };
  item("particles", particles);
  if (particles.tripped()) {
    os << "(bad " << particles.count << ")";
  }
  item("fields", fields);
  if (fields.status != SentinelStatus::kDisabled) {
    os << "(max " << fields.value << ")";
  }
  item("census", census);
  if (census.tripped()) {
    os << "(missing " << census.count << ")";
  }
  item("energy", energy);
  if (energy.status != SentinelStatus::kDisabled) {
    os << "(rel " << energy.value << ")";
  }
  item("gauss", gauss);
  if (gauss.status != SentinelStatus::kDisabled) {
    os << "(drift " << gauss.value << ")";
  }
  item("cycles", cycles);
  if (cycles.status != SentinelStatus::kDisabled && cycles.value > 0.0) {
    os << "(x" << cycles.value << ")";
  }
  if (quarantined_tiles > 0) {
    os << " quarantined=" << quarantined_tiles;
  }
  return os.str();
}

void HealthMonitor::BeginStep(int num_species, int num_tiles) {
  num_species_ = num_species;
  num_tiles_ = num_tiles;
  quarantined_.assign(
      static_cast<size_t>(num_species) * static_cast<size_t>(num_tiles), 0);
  step_partial_ = HealthTilePartial{};
}

bool HealthMonitor::AnyQuarantined() const {
  for (const uint8_t q : quarantined_) {
    if (q != 0) {
      return true;
    }
  }
  return false;
}

void HealthMonitor::AccumulateTilePartial(const HealthTilePartial& part) {
  step_partial_.nonfinite += part.nonfinite;
  step_partial_.out_of_bounds += part.out_of_bounds;
  step_partial_.quarantined += part.quarantined;
  step_partial_.kinetic += part.kinetic;
}

bool HealthMonitor::GuardTileFull(HwContext& hw, const ParticleTile& tile,
                                  const GridGeometry& geom, double margin,
                                  double mass, int sid, int t,
                                  HealthTilePartial* part) {
  const int32_t n = tile.num_slots();
  if (n == 0 || tile.num_live() == 0) {
    return true;
  }
  PhaseScope phase(hw.ledger(), Phase::kHealth);
  const ParticleSoA& soa = tile.soa();
  // The seven lane streams load once per batch; in the fused pass the gather
  // that follows re-reads the same lines warm, so the guard's net step cost
  // is essentially the compare/accumulate ops.
  int64_t batches = 0;
  for (int32_t base = 0; base < n; base += kVpuLanes) {
    const size_t batch =
        static_cast<size_t>(std::min<int32_t>(kVpuLanes, n - base));
    for (const std::vector<double>* lane :
         {&soa.x, &soa.y, &soa.z, &soa.ux, &soa.uy, &soa.uz, &soa.w}) {
      hw.TouchRead(lane->data() + base, sizeof(double) * batch);
    }
    hw.ledger().counters().vpu_mem += 7;
    ++batches;
  }
  hw.ChargeCycles(static_cast<double>(batches) *
                  (cfg_.check_energy ? 9.0 : 5.0) / hw.cfg().vpu_pipes);

  const double xlo = geom.x0 - margin, xhi = geom.x0 + geom.LengthX() + margin;
  const double ylo = geom.y0 - margin, yhi = geom.y0 + geom.LengthY() + margin;
  const double zlo = geom.z0 - margin, zhi = geom.z0 + geom.LengthZ() + margin;
  const double c2 = kSpeedOfLight * kSpeedOfLight;
  int64_t nonfinite = 0, oob = 0;
  double kinetic = 0.0;
  for (int32_t pid = 0; pid < n; ++pid) {
    if (!tile.IsLive(pid)) {
      continue;
    }
    const auto i = static_cast<size_t>(pid);
    const double x = soa.x[i], y = soa.y[i], z = soa.z[i];
    const double ux = soa.ux[i], uy = soa.uy[i], uz = soa.uz[i];
    const double w = soa.w[i];
    if (!std::isfinite(x) || !std::isfinite(y) || !std::isfinite(z) ||
        !std::isfinite(ux) || !std::isfinite(uy) || !std::isfinite(uz) ||
        !std::isfinite(w)) {
      ++nonfinite;
      continue;
    }
    if (x < xlo || x > xhi || y < ylo || y > yhi || z < zlo || z > zhi) {
      ++oob;
      continue;
    }
    if (cfg_.check_energy) {
      const double u2 = ux * ux + uy * uy + uz * uz;
      kinetic += w * (std::sqrt(1.0 + u2 / c2) - 1.0) * mass * c2;
    }
  }
  part->nonfinite += nonfinite;
  part->out_of_bounds += oob;
  part->kinetic += kinetic;
  if (nonfinite + oob > 0) {
    Quarantine(sid, t);
    ++part->quarantined;
    return false;
  }
  return true;
}

bool HealthMonitor::GuardTilePositions(HwContext& hw, const ParticleTile& tile,
                                       const GridGeometry& geom, double margin,
                                       int sid, int t,
                                       HealthTilePartial* part) {
  const int32_t n = tile.num_slots();
  if (n == 0 || tile.num_live() == 0) {
    return true;
  }
  PhaseScope phase(hw.ledger(), Phase::kHealth);
  const ParticleSoA& soa = tile.soa();
  int64_t batches = 0;
  for (int32_t base = 0; base < n; base += kVpuLanes) {
    const size_t batch =
        static_cast<size_t>(std::min<int32_t>(kVpuLanes, n - base));
    hw.TouchRead(soa.x.data() + base, sizeof(double) * batch);
    hw.TouchRead(soa.y.data() + base, sizeof(double) * batch);
    hw.TouchRead(soa.z.data() + base, sizeof(double) * batch);
    hw.ledger().counters().vpu_mem += 3;
    ++batches;
  }
  hw.ChargeCycles(static_cast<double>(batches) * 3.0 / hw.cfg().vpu_pipes);

  const double xlo = geom.x0 - margin, xhi = geom.x0 + geom.LengthX() + margin;
  const double ylo = geom.y0 - margin, yhi = geom.y0 + geom.LengthY() + margin;
  const double zlo = geom.z0 - margin, zhi = geom.z0 + geom.LengthZ() + margin;
  int64_t nonfinite = 0, oob = 0;
  for (int32_t pid = 0; pid < n; ++pid) {
    if (!tile.IsLive(pid)) {
      continue;
    }
    const auto i = static_cast<size_t>(pid);
    const double x = soa.x[i], y = soa.y[i], z = soa.z[i];
    if (!std::isfinite(x) || !std::isfinite(y) || !std::isfinite(z)) {
      ++nonfinite;
      continue;
    }
    if (x < xlo || x > xhi || y < ylo || y > yhi || z < zlo || z > zhi) {
      ++oob;
    }
  }
  part->nonfinite += nonfinite;
  part->out_of_bounds += oob;
  if (nonfinite + oob > 0) {
    Quarantine(sid, t);
    ++part->quarantined;
    return false;
  }
  return true;
}

double HealthMonitor::CurrentTotalEnergy(Simulation& sim,
                                         double kinetic_from_guards,
                                         bool use_guard_kinetic) const {
  const double field = FieldEnergy(sim.fields());
  // FieldEnergy is a pure function; bill its interior read here.
  const double field_elems = static_cast<double>(sim.fields().ex.size()) * 6.0;
  sim.hw().ChargeBulk(2.0 * field_elems, 8.0 * field_elems);
  double kinetic = kinetic_from_guards;
  if (!use_guard_kinetic) {
    kinetic = TotalKineticEnergy(sim);
    double live = 0.0;
    for (int sid = 0; sid < sim.num_species(); ++sid) {
      live += static_cast<double>(sim.block(sid).tiles.TotalLive());
    }
    sim.hw().ChargeBulk(6.0 * live, 8.0 * 4.0 * live);
  }
  return field + kinetic;
}

void HealthMonitor::FinishStep(Simulation& sim, SimStepStats* stats) {
  HwContext& hw = sim.hw();
  PhaseScope phase(hw.ledger(), Phase::kHealth);
  HealthStepReport rep;
  rep.checked = true;
  rep.quarantined_tiles = step_partial_.quarantined;

  if (cfg_.check_particles) {
    rep.particles.count = step_partial_.nonfinite + step_partial_.out_of_bounds;
    rep.particles.status = rep.particles.count > 0 ? SentinelStatus::kTripped
                                                   : SentinelStatus::kOk;
  }

  if (cfg_.check_fields) {
    const FieldSet& f = sim.fields();
    const FieldArray* arrays[] = {&f.ex, &f.ey, &f.ez, &f.bx, &f.by,
                                  &f.bz, &f.jx, &f.jy, &f.jz};
    int64_t bad = 0;
    double max_abs = 0.0;
    double elems = 0.0;
    for (const FieldArray* a : arrays) {
      for (const double v : a->vec()) {
        if (!std::isfinite(v)) {
          ++bad;
        } else {
          max_abs = std::max(max_abs, std::abs(v));
        }
      }
      elems += static_cast<double>(a->size());
    }
    hw.ChargeBulk(2.0 * elems, 8.0 * elems);
    rep.fields.count = bad;
    rep.fields.value = max_abs;
    rep.fields.status = (bad > 0 || max_abs > cfg_.max_field_magnitude)
                            ? SentinelStatus::kTripped
                            : SentinelStatus::kOk;
  }

  if (cfg_.check_census) {
    int64_t live = 0, dropped = 0, injected = 0;
    for (const SpeciesStepStats& s : stats->species) {
      live += s.live;
      dropped += s.dropped;
      injected += s.injected;
    }
    hw.ChargeCycles(8.0);
    if (!have_census_) {
      have_census_ = true;
      rep.census.status = SentinelStatus::kOk;
    } else {
      const int64_t expected = prev_live_ - dropped + injected;
      rep.census.count = expected - live;
      rep.census.status = expected == live ? SentinelStatus::kOk
                                           : SentinelStatus::kTripped;
    }
    prev_live_ = live;
  }

  if (cfg_.check_energy) {
    const double total =
        CurrentTotalEnergy(sim, step_partial_.kinetic, cfg_.check_particles);
    if (!std::isfinite(total)) {
      rep.energy.value = total;
      rep.energy.status = SentinelStatus::kTripped;
    } else if (!have_energy_) {
      have_energy_ = true;
      prev_energy_ = total;
      rep.energy.status = SentinelStatus::kOk;
    } else {
      const double denom = std::max(std::abs(prev_energy_), 1e-300);
      rep.energy.value = std::abs(total - prev_energy_) / denom;
      rep.energy.status = rep.energy.value <= cfg_.max_energy_step_rel_change
                              ? SentinelStatus::kOk
                              : SentinelStatus::kTripped;
      prev_energy_ = total;
    }
  }

  if (cfg_.gauss_interval > 0 && sim.staggered_j() &&
      steps_checked_ % cfg_.gauss_interval == 0) {
    FieldArray rho = DepositChargeDensity(sim);
    const GridGeometry& g = sim.fields().geom;
    FieldArray res(g.nx, g.ny, g.nz, 2);
    GaussResidualField(sim.fields(), rho, &res);
    if (!prev_gauss_residual_.has_value()) {
      gauss_scale_ = std::max(GaussResidualScale(rho), 1e-300);
      rep.gauss.status = SentinelStatus::kOk;
    } else {
      rep.gauss.value =
          MaxResidualChange(*prev_gauss_residual_, res, gauss_scale_);
      rep.gauss.status = rep.gauss.value <= cfg_.max_gauss_residual_drift
                             ? SentinelStatus::kOk
                             : SentinelStatus::kTripped;
    }
    prev_gauss_residual_ = std::move(res);
  }

  if (cfg_.check_cycles) {
    // Modeled cycles this step = ledger total now minus the mark taken at the
    // previous epilogue (so the window spans one full step: particle stages,
    // solver, and the sentinels themselves). The total is the modeled
    // critical path, so a scheduler regression shows up here even when the
    // per-phase sums are unchanged. All inputs are modeled, so the sentinel
    // is bit-deterministic across OpenMP thread counts.
    const double total = hw.ledger().TotalCycles();
    hw.ChargeCycles(6.0);
    if (!have_cycle_mark_) {
      have_cycle_mark_ = true;
      rep.cycles.status = SentinelStatus::kOk;
    } else {
      const double step_cycles = total - prev_total_cycles_;
      const bool armed = cycle_samples_ >= cfg_.cycle_warmup_steps &&
                         cycle_baseline_ > 0.0;
      rep.cycles.count = static_cast<int64_t>(cycle_baseline_);
      if (armed) {
        rep.cycles.value = step_cycles / cycle_baseline_;
        rep.cycles.status = rep.cycles.value <= cfg_.max_cycle_step_factor
                                ? SentinelStatus::kOk
                                : SentinelStatus::kTripped;
      } else {
        rep.cycles.status = SentinelStatus::kOk;
      }
      // A tripped step never feeds the baseline: a sustained fault must keep
      // tripping rather than ratchet the baseline up to meet it.
      if (!rep.cycles.tripped()) {
        constexpr double kAlpha = 0.3;
        cycle_baseline_ = cycle_samples_ == 0
                              ? step_cycles
                              : (1.0 - kAlpha) * cycle_baseline_ +
                                    kAlpha * step_cycles;
        ++cycle_samples_;
      }
    }
    prev_total_cycles_ = hw.ledger().TotalCycles();
  }

  ++steps_checked_;
  stats->health = rep;
}

void HealthMonitor::Rebaseline(Simulation& sim) {
  int64_t live = 0;
  for (int sid = 0; sid < sim.num_species(); ++sid) {
    live += sim.block(sid).tiles.TotalLive();
  }
  prev_live_ = live;
  have_census_ = true;
  if (cfg_.check_energy) {
    // Exact kinetic energy of the restored/scrubbed state (the guard partial
    // describes the discarded timeline).
    prev_energy_ = CurrentTotalEnergy(sim, 0.0, /*use_guard_kinetic=*/false);
    have_energy_ = std::isfinite(prev_energy_);
  }
  prev_gauss_residual_.reset();
  gauss_scale_ = 0.0;
  // The cycle baseline describes the discarded timeline (and a rollback
  // rewinds the modeled clock itself), so re-warm it from scratch.
  have_cycle_mark_ = false;
  prev_total_cycles_ = 0.0;
  cycle_baseline_ = 0.0;
  cycle_samples_ = 0;
  step_partial_ = HealthTilePartial{};
  std::fill(quarantined_.begin(), quarantined_.end(), 0);
}

}  // namespace mpic
