// perfbench: the repo benchmark. One run measures one named workload at one
// seed and prints, as its last stdout line, a JSON object
//   {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}
// with the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run, --trace 1). perfbench/README.md documents every metric, the workloads,
// and which layer metric should move which end-to-end metric.
//
// Two kinds of time appear:
//   modeled — seconds on the LX2 cost model, read from the cost ledger; they
//             repeat exactly for a given workload and seed;
//   host    — seconds the simulator itself takes, from steady_clock.
//
// The library is used only from outside: the workload builders,
// Simulation::Step, reads of the ledger / last_sim_stats() / rank comm stats,
// SaveCheckpoint / RestoreCheckpoint, SimulationDigest and the diagnostics'
// energy and Gauss-residual functions.
//
// A run is a sequence of episodes. An episode builds the workload fresh,
// steps through a warm-up, then measures a fixed window of steps. Episodes
// repeat until --seconds is spent; every episode must reproduce the first
// one's modeled window and digest bit for bit. The host metrics take, for
// each window step, its fastest time over the episodes, so a slow stretch of
// a shared host does not move them. With --trace 1 untraced and traced
// episodes alternate; in a traced episode every library call is a span.

#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/ledger_trace.h"
#include "src/core/diagnostics.h"
#include "src/core/workloads.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/digest.h"
#include "src/runtime/fault_injection.h"
#include "src/runtime/health.h"

namespace perfbench {
namespace {

using mpic::HwContext;
using mpic::Phase;
using mpic::Simulation;

// Host threads driving the tile-parallel regions. Fixed so host times compare
// across machines with different core counts.
// One thread: in a comparison of five runs each on a shared 4-vCPU host, two
// threads spread the host step time of bunched_esirkepov_2r over a 20% range
// and one thread over 5%; with one thread no OpenMP barrier waits on a thread
// that a neighbouring load has slowed.
constexpr int kHostThreads = 1;
// Fresh builds timed for setup_s before every round; the metric is the
// fastest build of the run. A single build takes 4-40 ms and the host's speed
// drifts over seconds, so the builds are spread over the whole run, as the
// steps are.
constexpr int kSetupBuildsPerRound = 8;
// Steps both sides take after a checkpoint restore before they are compared.
constexpr int kCheckpointSteps = 3;
// Steps the Gauss-residual check advances past the measured window.
constexpr int kGaussSteps = 2;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  int warmup;      // steps before the measured window
  int window;      // measured steps
  int order;       // shape order, for the canonical FLOP count
  bool periodic;   // no drops or injection: the census is constant
  bool health;     // sentinels on; a trip is a failed check
  bool esirkepov;  // charge-conserving: the Gauss residual must not drift
  mpic::MachineConfig machine;
  std::function<std::unique_ptr<Simulation>(HwContext&, uint64_t)> build;
};

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> w;

  Workload uniform{};
  uniform.name = "uniform_qsp";
  uniform.warmup = 1;
  uniform.window = 10;
  uniform.order = 3;
  uniform.periodic = true;
  uniform.machine = mpic::MachineConfig::Lx2MultiCore(4);
  uniform.build = [](HwContext& hw, uint64_t seed) {
    mpic::UniformWorkloadParams p;
    p.nx = 16;
    p.ny = p.nz = 8;
    p.tile = 8;
    p.ppc_x = p.ppc_y = p.ppc_z = 4;
    p.order = 3;
    p.variant = mpic::DepositVariant::kFullOpt;
    p.scheme = mpic::CurrentScheme::kDirect;
    p.seed = seed;
    return mpic::MakeUniformSimulation(hw, p);
  };
  w.push_back(uniform);

  Workload lwfa{};
  lwfa.name = "lwfa_cic_ions";
  lwfa.warmup = 2;
  lwfa.window = 18;
  lwfa.order = 1;
  lwfa.health = true;
  lwfa.machine = mpic::MachineConfig::Lx2MultiCore(4);
  lwfa.build = [](HwContext& hw, uint64_t seed) {
    mpic::LwfaWorkloadParams p;
    p.nx = p.ny = 8;
    p.nz = 64;
    p.tile = 8;
    p.tile_z = 16;
    p.ppc_x = p.ppc_y = p.ppc_z = 2;
    p.with_ions = true;
    p.variant = mpic::DepositVariant::kFullOpt;
    p.seed = seed;
    auto sim = mpic::MakeLwfaSimulation(hw, p);
    // The antenna injects energy every step, so the closed-system energy
    // sentinel does not apply (examples/lwfa.cpp, runtime/health.h).
    mpic::HealthConfig health;
    health.check_energy = false;
    sim->EnableHealth(health);
    return sim;
  };
  w.push_back(lwfa);

  Workload bunched{};
  bunched.name = "bunched_esirkepov_2r";
  bunched.warmup = 2;
  bunched.window = 30;
  bunched.order = 1;
  bunched.periodic = true;
  bunched.esirkepov = true;
  bunched.machine = mpic::MachineConfig::Lx2Cluster(2, 2, /*stealing=*/true);
  bunched.machine.num_numa_domains = 2;
  bunched.build = [](HwContext& hw, uint64_t seed) {
    mpic::BunchedBeamParams p;
    p.nx = p.ny = p.nz = 16;
    p.tile = 4;
    p.ppc_x = p.ppc_y = p.ppc_z = 4;
    p.u_drift_z = 0.2;
    p.scheme = mpic::CurrentScheme::kEsirkepov;
    p.seed = seed;
    return mpic::MakeBunchedBeamSimulation(hw, p);
  };
  w.push_back(bunched);
  return w;
}

// A modeled machine and the simulation running on it. Declaration order makes
// the simulation die before the context it references.
struct Instance {
  std::unique_ptr<HwContext> hw;
  std::unique_ptr<Simulation> sim;
};

Instance Build(const Workload& w, uint64_t seed, Tracer* tracer, int parent) {
  Instance inst;
  inst.hw = std::make_unique<HwContext>(w.machine);
  const int id =
      tracer != nullptr ? tracer->Open("build", parent, inst.hw.get(), nullptr) : -1;
  inst.sim = w.build(*inst.hw, seed);
  if (tracer != nullptr) tracer->Close(id, inst.hw.get(), inst.sim.get());
  return inst;
}

int64_t LiveParticles(const Simulation& sim) {
  int64_t live = 0;
  for (int sid = 0; sid < sim.num_species(); ++sid) {
    live += sim.block(sid).tiles.TotalLive();
  }
  return live;
}

// ---------------------------------------------------------------------------
// Correctness checks, counted against checks attempted
// ---------------------------------------------------------------------------

class Checks {
 public:
  void Expect(const char* name, bool ok, const std::string& detail = "") {
    Tally& t = by_name_[name];
    ++t.attempted;
    ++attempted_;
    if (!ok) {
      ++t.failed;
      ++failed_;
      if (failed_ <= 10) {
        std::fprintf(stderr, "perfbench: check %s failed %s\n", name, detail.c_str());
      }
    }
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  double FailShare() const {
    return attempted_ == 0
               ? 0.0
               : static_cast<double>(failed_) / static_cast<double>(attempted_);
  }

  // One line naming every check with its failed/attempted counts.
  std::string Summary() const {
    std::string out = "{";
    for (const auto& [name, t] : by_name_) {
      if (out.size() > 1) out += ", ";
      out += "\"" + name + "\": [" + std::to_string(t.failed) + ", " +
             std::to_string(t.attempted) + "]";
    }
    return out + "}";
  }

 private:
  struct Tally {
    int64_t attempted = 0;
    int64_t failed = 0;
  };
  std::map<std::string, Tally> by_name_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

StepTally TallyStep(const mpic::SimStepStats& st) {
  StepTally t;
  t.pushed = st.TotalPushed();
  for (const mpic::SpeciesStepStats& s : st.species) {
    t.moved += s.engine.moved_particles;
    t.gpma_rebuilds += s.engine.gpma_rebuilds;
    t.global_sorts += s.engine.global_sorted ? 1 : 0;
  }
  t.health_trips = st.health.tripped() ? 1 : 0;
  return t;
}

// The per-step checks: particle census, finite energies, a positive finite
// ledger charge, and (with sentinels on) no health trip.
void CheckStep(const Workload& w, const Simulation& sim, const LedgerPoint& before,
               const LedgerPoint& after, int64_t initial_live, int64_t* live,
               Checks* checks) {
  const mpic::SimStepStats& st = sim.last_sim_stats();
  const int64_t now_live = st.TotalLive();
  if (w.periodic) {
    checks->Expect("census", now_live == initial_live);
  } else {
    int64_t injected = 0;
    int64_t dropped = 0;
    for (const mpic::SpeciesStepStats& s : st.species) {
      injected += s.injected;
      dropped += s.dropped;
    }
    checks->Expect("census", *live + injected - dropped == now_live);
  }
  *live = now_live;

  const double field = mpic::FieldEnergy(sim.fields());
  const double kinetic = mpic::TotalKineticEnergy(sim);
  checks->Expect("finite_energy", std::isfinite(field) && std::isfinite(kinetic));

  // The step charges the modeled machine a positive, finite number of cycles,
  // and no phase bucket goes backwards.
  const LedgerPoint d = Delta(before, after);
  bool charged = std::isfinite(d.total) && d.total > 0.0;
  for (double c : d.phase) charged = charged && std::isfinite(c) && c >= 0.0;
  checks->Expect("ledger_charged", charged);

  if (w.health) {
    checks->Expect("health", st.health.checked && !st.health.tripped(),
                   st.health.Summary());
  }
}

// ---------------------------------------------------------------------------
// Episodes
// ---------------------------------------------------------------------------

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Episode {
  Instance inst;
  LedgerPoint window;           // modeled deltas over the measured window
  StepTally tally;              // step census summed over the window
  mpic::RunReport report;       // modeled seconds over the window
  uint64_t digest = 0;          // SimulationDigest at the window's end
  std::vector<double> step_s;   // host seconds per window Step()
  double peak_rss_mb = 0.0;     // the process's peak RSS when the episode ended
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool inject_fault = false;
};

Episode RunEpisode(const Workload& w, const RunOptions& opt, Tracer* tracer,
                   Checks* checks) {
  Episode ep;
  const int root =
      tracer != nullptr ? tracer->Open("episode", -1, nullptr, nullptr) : -1;
  ep.inst = Build(w, opt.seed, tracer, root);
  HwContext& hw = *ep.inst.hw;
  Simulation& sim = *ep.inst.sim;

  // Test hook, so the checks can be shown to fire: right after the warm-up,
  // lose one tile's staged movers (a particle migration buffer). The census
  // check and, where they run, the health sentinels must notice.
  std::optional<mpic::FaultInjector> injector;
  if (opt.inject_fault) {
    mpic::FaultPlan plan;
    mpic::FaultSpec spec;
    spec.kind = mpic::FaultKind::kDropStagedMovers;
    spec.step = w.warmup + 1;
    plan.faults.push_back(spec);
    injector.emplace(plan);
    sim.SetFaultInjector(&*injector);
  }

  const int64_t initial_live = LiveParticles(sim);
  int64_t live = initial_live;
  LedgerPoint prev = ReadLedger(&hw, &sim);
  LedgerPoint window_start = prev;
  for (int s = 0; s < w.warmup + w.window; ++s) {
    const bool in_window = s >= w.warmup;
    if (s == w.warmup) window_start = prev;
    if (injector.has_value()) injector->ApplyPreStep(&sim);

    const Clock::time_point t0 = Clock::now();
    const int id = tracer != nullptr ? tracer->Open("step", root, &hw, &sim) : -1;
    sim.Step();
    Span* span = tracer != nullptr ? &tracer->Close(id, &hw, &sim) : nullptr;
    const double host_s = SecondsBetween(t0, Clock::now());

    const LedgerPoint now = ReadLedger(&hw, &sim);
    const StepTally tally = TallyStep(sim.last_sim_stats());
    CheckStep(w, sim, prev, now, initial_live, &live, checks);
    if (span != nullptr) {
      span->window = in_window;
      span->tally = tally;
    }
    if (in_window) {
      ep.step_s.push_back(host_s);
      ep.tally.Add(tally);
    }
    prev = now;
  }
  sim.SetFaultInjector(nullptr);
  ep.window = Delta(window_start, prev);
  ep.report = mpic::MakeRunReport(hw, window_start.phase, ep.tally.pushed, w.order);

  const int id = tracer != nullptr ? tracer->Open("digest", root, &hw, &sim) : -1;
  ep.digest = mpic::SimulationDigest(sim);
  if (tracer != nullptr) {
    tracer->Close(id, &hw, &sim);
    tracer->Close(root, &hw, &sim);
  }
  ep.peak_rss_mb = PeakRssMb();
  return ep;
}

// Exact identity of two episodes' modeled windows, census and digests.
bool SameModeled(const Episode& a, const Episode& b) {
  return a.window == b.window && a.digest == b.digest &&
         a.tally.pushed == b.tally.pushed && a.tally.moved == b.tally.moved &&
         a.tally.gpma_rebuilds == b.tally.gpma_rebuilds &&
         a.tally.global_sorts == b.tally.global_sorts &&
         a.tally.health_trips == b.tally.health_trips &&
         a.report.wall_seconds == b.report.wall_seconds &&
         a.report.particles_per_second == b.report.particles_per_second &&
         a.report.peak_efficiency == b.report.peak_efficiency;
}

// Esirkepov deposition conserves charge exactly, so the Gauss-law residual
// div E - rho/eps0 may change only at rounding level. Runs past the measured
// window: the charge-density deposit is charged to the modeled ledger.
void CheckGauss(Episode& ep, Checks* checks) {
  Simulation& sim = *ep.inst.sim;
  const mpic::GridGeometry& g = sim.fields().geom;
  const mpic::FieldArray rho0 = mpic::DepositChargeDensity(sim);
  mpic::FieldArray res0(g.nx, g.ny, g.nz, 2);
  mpic::GaussResidualField(sim.fields(), rho0, &res0);
  for (int s = 0; s < kGaussSteps; ++s) sim.Step();
  const mpic::FieldArray rho1 = mpic::DepositChargeDensity(sim);
  mpic::FieldArray res1(g.nx, g.ny, g.nz, 2);
  mpic::GaussResidualField(sim.fields(), rho1, &res1);
  const double change =
      mpic::MaxResidualChange(res1, res0, mpic::GaussResidualScale(rho0));
  checks->Expect("gauss_residual", change < 1e-8, "change " + std::to_string(change));
}

struct CheckpointResult {
  double save_s = 0.0;
  double restore_s = 0.0;
  double bytes = 0.0;
};

// Saves `ep` mid-run (past its measured window) with the model-sync handshake,
// restores into a freshly built twin, steps both, and requires equal digests
// and ledgers.
CheckpointResult CheckpointRoundTrip(const Workload& w, const RunOptions& opt,
                                     Episode& ep, Tracer* tracer, Checks* checks) {
  CheckpointResult r;
  HwContext& hw = *ep.inst.hw;
  Simulation& sim = *ep.inst.sim;
  const int root = tracer->Open("checkpoint_round_trip", -1, nullptr, nullptr);

  std::vector<uint8_t> image;
  mpic::CheckpointWriteOptions wopts;
  wopts.model_sync = true;
  Clock::time_point t0 = Clock::now();
  int id = tracer->Open("save_checkpoint", root, &hw, &sim);
  const mpic::CheckpointStatus saved = mpic::SaveCheckpoint(sim, &image, wopts);
  tracer->Close(id, &hw, &sim);
  r.save_s = SecondsBetween(t0, Clock::now());
  r.bytes = static_cast<double>(image.size());

  Instance twin = Build(w, opt.seed, tracer, root);
  mpic::CheckpointReadOptions ropts;
  ropts.restore_ledger = true;
  ropts.model_sync = true;
  t0 = Clock::now();
  id = tracer->Open("restore_checkpoint", root, twin.hw.get(), twin.sim.get());
  const mpic::CheckpointStatus restored =
      mpic::RestoreCheckpoint(twin.sim.get(), image, ropts);
  tracer->Close(id, twin.hw.get(), twin.sim.get());
  r.restore_s = SecondsBetween(t0, Clock::now());

  for (int s = 0; s < kCheckpointSteps; ++s) {
    for (Instance* inst : {&ep.inst, &twin}) {
      id = tracer->Open("step", root, inst->hw.get(), inst->sim.get());
      inst->sim->Step();
      tracer->Close(id, inst->hw.get(), inst->sim.get());
    }
  }
  const bool same = mpic::SimulationDigest(sim) == mpic::SimulationDigest(*twin.sim) &&
                    ReadLedger(&hw, &sim) == ReadLedger(twin.hw.get(), twin.sim.get());
  tracer->Close(root, nullptr, nullptr);
  checks->Expect("checkpoint_round_trip", saved.ok && restored.ok && same,
                 saved.error + restored.error);
  return r;
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest percentile with at least ten samples beyond it: the 11th-largest
// sample (the maximum when there are fewer than eleven).
double Tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.back();
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

// JSON has no NaN or infinity: a non-finite metric is a failed check and
// prints as 0. Call before reading the final check counts.
void CheckFinite(Checks* checks, std::vector<Metric>* metrics) {
  for (Metric& m : *metrics) {
    const bool finite = std::isfinite(m.value);
    checks->Expect("finite_metric", finite, m.name);
    if (!finite) m.value = 0.0;
  }
}

// The check summary line, then the result line.
void PrintResult(const Checks& checks, const std::vector<Metric>& metrics) {
  std::printf("checks %s\n", checks.Summary().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              checks.failed() == 0 ? "true" : "false",
              static_cast<long long>(checks.attempted()),
              static_cast<long long>(checks.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name, metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// The episodes of a run: untraced ones, and with a tracer as many traced ones;
// the host seconds of each round's fastest timed setup build; and the
// checkpoint round trip of a traced run.
struct Rounds {
  std::vector<Episode> plain;
  std::vector<Episode> traced;
  std::vector<double> setup_s;
  CheckpointResult checkpoint;
};

// Runs rounds until `budget_s` is spent, at least one. A round is a few timed
// setup builds, then an untraced episode, required to repeat the first one bit
// for bit, and with a tracer a traced episode right after it, required to
// equal the first untraced one; alternating the two lets machine drift hit
// both sides of trace.overhead_share alike. The first round also carries the
// once-per-run work (the Gauss check, the checkpoint round trip), so it is the
// longest: no round starts unless one as long as the longest so far still
// fits the budget.
Rounds RunRounds(const Workload& w, const RunOptions& opt, Tracer* tracer,
                 double budget_s, Checks* checks) {
  Rounds r;
  const Clock::time_point start = Clock::now();
  double longest_s = 0.0;
  while (r.plain.empty() ||
         SecondsBetween(start, Clock::now()) + longest_s <= budget_s) {
    const Clock::time_point round_start = Clock::now();
    std::vector<double> builds_s;
    for (int i = 0; i < kSetupBuildsPerRound; ++i) {
      const Clock::time_point t0 = Clock::now();
      Instance inst = Build(w, opt.seed, nullptr, -1);
      builds_s.push_back(SecondsBetween(t0, Clock::now()));
    }
    r.setup_s.push_back(*std::min_element(builds_s.begin(), builds_s.end()));

    r.plain.push_back(RunEpisode(w, opt, nullptr, checks));
    Episode& ep = r.plain.back();
    if (r.plain.size() > 1) checks->Expect("repeat", SameModeled(r.plain.front(), ep));
    if (w.esirkepov && r.plain.size() == 1) CheckGauss(ep, checks);
    ep.inst = Instance{};

    if (tracer != nullptr) {
      r.traced.push_back(RunEpisode(w, opt, tracer, checks));
      Episode& traced = r.traced.back();
      checks->Expect("traced_equals_untraced", SameModeled(r.plain.front(), traced));
      if (r.traced.size() == 1) {
        r.checkpoint = CheckpointRoundTrip(w, opt, traced, tracer, checks);
      }
      traced.inst = Instance{};
    }
    longest_s = std::max(longest_s, SecondsBetween(round_start, Clock::now()));
  }
  return r;
}

// Per episode: the median host seconds of its window steps.
std::vector<double> EpisodeMedians(const std::vector<Episode>& eps) {
  std::vector<double> out;
  for (const Episode& ep : eps) out.push_back(Median(ep.step_s));
  return out;
}

// Per window step, its fastest host time over the episodes. Every episode
// repeats the same modeled steps, and on a shared host contention only ever
// adds time, so the best of several episodes follows the code and not the
// neighbours.
std::vector<double> BestStepSeconds(const std::vector<Episode>& eps) {
  std::vector<double> best = eps.front().step_s;
  for (const Episode& ep : eps) {
    for (size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], ep.step_s[i]);
  }
  return best;
}

std::vector<double> PooledStepSeconds(const std::vector<Episode>& eps) {
  std::vector<double> all;
  for (const Episode& ep : eps) {
    all.insert(all.end(), ep.step_s.begin(), ep.step_s.end());
  }
  return all;
}

std::string FormatList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4g", i == 0 ? "" : ", ", v[i]);
    out += buf;
  }
  return out + "]";
}

int Run(const RunOptions& opt) {
  std::vector<Workload> all = MakeWorkloads();
  const Workload* found = nullptr;
  for (const Workload& w : all) {
    if (opt.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  omp_set_num_threads(kHostThreads);
  Checks checks;

  if (!opt.trace) {
    const Rounds rounds = RunRounds(w, opt, nullptr, opt.seconds, &checks);
    const std::vector<Episode>& eps = rounds.plain;
    const Episode& first = eps.front();
    std::printf("%s seed %llu: %zu episodes x %d steps (+%d warm-up); "
                "episode step medians %s s; round best setups %s s\n",
                w.name, static_cast<unsigned long long>(opt.seed), eps.size(), w.window,
                w.warmup, FormatList(EpisodeMedians(eps)).c_str(),
                FormatList(rounds.setup_s).c_str());
    std::vector<Metric> metrics = {
        {"modeled_step_s", first.report.wall_seconds / w.window, "s"},
        {"modeled_deposit_particles_per_s", first.report.particles_per_second, "1/s"},
        // Host seconds to construct the modeled machine, build, seed,
        // scramble and Initialize() the workload.
        {"setup_s", *std::min_element(rounds.setup_s.begin(), rounds.setup_s.end()),
         "s"},
        // Read after the first episode, so it does not depend on how many
        // episodes fit the budget.
        {"peak_rss_mb", first.peak_rss_mb, "MB"}};
    CheckFinite(&checks, &metrics);
    PrintResult(checks, metrics);
    return 0;
  }

  // Traced run: alternating untraced and traced episodes. The trace file goes
  // to the working directory.
  Tracer tracer;
  const Rounds rounds = RunRounds(w, opt, &tracer, opt.seconds, &checks);
  const std::vector<Episode>& plain = rounds.plain;
  const std::vector<Episode>& traced = rounds.traced;
  const CheckpointResult& ckpt = rounds.checkpoint;
  const std::string trace_path = std::string("trace_") + w.name + "_seed" +
                                 std::to_string(opt.seed) + ".json";
  if (!tracer.WriteChromeJson(trace_path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", trace_path.c_str());
  }

  // Modeled per-layer numbers from the traced episodes' window Step spans;
  // host step times from the episodes themselves (a traced step's time
  // includes its span bookkeeping).
  LedgerPoint d;
  StepTally t;
  double steps = 0.0;
  for (const Span& s : tracer.spans()) {
    if (!s.window) continue;
    Accumulate(&d, s.delta);
    t.Add(s.tally);
    steps += 1.0;
  }
  const auto per_step = [steps](double v) { return steps > 0 ? v / steps : 0.0; };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const std::vector<double> plain_s = PooledStepSeconds(plain);
  // Tracing overhead per round (a traced episode right after an untraced
  // one), so drift between rounds cancels.
  std::vector<double> overhead;
  for (size_t i = 0; i < traced.size(); ++i) {
    overhead.push_back(Median(traced[i].step_s) / Median(plain[i].step_s) - 1.0);
  }
  // Host step times of the untraced episodes, best of the episodes per step.
  const std::vector<double> best = BestStepSeconds(plain);
  const double best_window_s = std::accumulate(best.begin(), best.end(), 0.0);
  const double l1_accesses = d.Count(kL1Hits) + d.Count(kL1Misses);
  const double window_accesses = l1_accesses / steps * static_cast<double>(w.window);
  const double pushed = static_cast<double>(t.pushed);

  std::printf("%s seed %llu: %zu untraced + %zu traced episodes x %d steps; "
              "%zu spans; step.host_s_tail over %zu samples\n",
              w.name, static_cast<unsigned long long>(opt.seed), plain.size(),
              traced.size(), w.window, tracer.spans().size(), plain_s.size());
  std::vector<Metric> metrics = {
      {"deposit.preproc_cycles", per_step(d.Phase(Phase::kPreproc)), "cycles/step"},
      {"deposit.compute_cycles", per_step(d.Phase(Phase::kCompute)), "cycles/step"},
      {"deposit.reduce_cycles", per_step(d.Phase(Phase::kReduce)), "cycles/step"},
      {"deposit.mopas_per_particle", ratio(d.Count(kMopas), pushed), "count"},
      {"deposit.mpu_occupancy", ratio(d.Count(kMopaValidSlots), 64.0 * d.Count(kMopas)),
       "share"},
      {"deposit.peak_efficiency", traced.front().report.peak_efficiency, "share"},
      {"push.gather_cycles", per_step(d.Phase(Phase::kGather)), "cycles/step"},
      {"push.push_cycles", per_step(d.Phase(Phase::kPush)), "cycles/step"},
      {"sort.cycles", per_step(d.Phase(Phase::kSort)), "cycles/step"},
      {"sort.moved_particles", per_step(static_cast<double>(t.moved)), "count/step"},
      {"sort.gpma_rebuilds", per_step(static_cast<double>(t.gpma_rebuilds)),
       "count/step"},
      {"sort.global_sorts", per_step(static_cast<double>(t.global_sorts)),
       "count/step"},
      {"sort.rebuilds_per_1k_moves",
       1000.0 *
           ratio(static_cast<double>(t.gpma_rebuilds), static_cast<double>(t.moved)),
       "count"},
      {"solver.cycles", per_step(d.Phase(Phase::kSolver)), "cycles/step"},
      {"core.other_cycles", per_step(d.Phase(Phase::kOther)), "cycles/step"},
      {"health.cycles", per_step(d.Phase(Phase::kHealth)), "cycles/step"},
      {"health.trips", per_step(static_cast<double>(t.health_trips)), "count/step"},
      {"sched.tasks_stolen", per_step(d.Count(kTasksStolen)), "count/step"},
      {"sched.tasks_stolen_remote", per_step(d.Count(kTasksStolenRemote)),
       "count/step"},
      {"sched.steal_cycles", per_step(d.Count(kStealCycles)), "cycles/step"},
      {"cache.l1_miss_ratio", ratio(d.Count(kL1Misses), l1_accesses), "share"},
      {"cache.l2_miss_ratio",
       ratio(d.Count(kL2Misses), d.Count(kL2Hits) + d.Count(kL2Misses)), "share"},
      {"cache.remote_lines", per_step(d.Count(kRemoteLines)), "count/step"},
      {"cache.remote_cycles", per_step(d.Count(kRemoteCycles)), "cycles/step"},
      {"hw.host_ns_per_access", 1e9 * ratio(best_window_s, window_accesses), "ns"},
      {"comm.cycles", per_step(d.Count(kCommCycles)), "cycles/step"},
      {"comm.bytes", per_step(d.Count(kCommBytes)), "B/step"},
      {"comm.messages", per_step(d.Count(kCommMessages)), "count/step"},
      {"comm.migrated_particles", per_step(d.Count(kCommMigrated)), "count/step"},
      {"checkpoint.save_s", ckpt.save_s, "s"},
      {"checkpoint.restore_s", ckpt.restore_s, "s"},
      {"checkpoint.bytes", ckpt.bytes, "B"},
      {"host_step_s_p50", Median(best), "s"},
      {"host_particle_steps_per_s",
       ratio(static_cast<double>(plain.front().tally.pushed), best_window_s), "1/s"},
      {"step.host_s_tail", Tail(plain_s), "s"},
      {"step.host_samples", static_cast<double>(plain_s.size()), "count"},
      {"trace.overhead_share", Median(overhead), "share"},
      {"checks.fail_share", 0.0, "share"}};
  CheckFinite(&checks, &metrics);
  metrics.back().value = checks.FailShare();
  PrintResult(checks, metrics);
  return 0;
}

bool ParseArgs(int argc, char** argv, RunOptions* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--inject-fault") {
      opt->inject_fault = true;
    } else if (!has_value) {
      return false;
    } else if (a == "--workload") {
      opt->workload = argv[++i];
    } else if (a == "--seed") {
      opt->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt->seconds = std::atof(argv[++i]);
    } else if (a == "--trace") {
      opt->trace = std::atoi(argv[++i]) != 0;
    } else {
      return false;
    }
  }
  return !opt->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  if (!perfbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] [--seconds S]\n"
                 "                 [--trace 0|1] [--inject-fault]\n");
    return 2;
  }
  return perfbench::Run(opt);
}
