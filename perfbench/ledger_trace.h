// Ledger points and spans for the repo benchmark (perfbench).
//
// A LedgerPoint is everything the benchmark reads off the library at one
// instant: the cost ledger's 11 phase buckets and total, every ledger event
// counter, and the ranks' cumulative RankCommStats. Two points subtract into
// a delta; a delta of the measured window is the unit the benchmark compares
// bit for bit between runs.
//
// A Span is one call into the library (a workload build, Simulation::Step,
// a checkpoint save or restore, a digest) with its host start/end and the
// LedgerPoint delta it caused. The Tracer keeps spans in memory and writes
// them out once, at the end, as Chrome trace-event JSON (opens in Perfetto or
// chrome://tracing). The library itself carries no spans; these wrap the
// benchmark's calls into it.

#ifndef MPIC_PERFBENCH_LEDGER_TRACE_H_
#define MPIC_PERFBENCH_LEDGER_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/simulation.h"
#include "src/hw/cost_ledger.h"
#include "src/hw/hw_context.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Ledger event counters followed by the rank-summed RankCommStats fields.
enum Counter : int {
  kScalarOps = 0,
  kScalarMem,
  kVpuOps,
  kVpuMem,
  kGathers,
  kScatters,
  kMopas,
  kMopaValidSlots,
  kAtomics,
  kTasksStolen,
  kTasksStolenRemote,
  kStealCycles,
  kL1Hits,
  kL1Misses,
  kL2Hits,
  kL2Misses,
  kRemoteLines,
  kRemoteCycles,
  kCommBytes,
  kCommMessages,
  kCommCycles,
  kCommMigrated,
  kNumCounters,
};

inline const char* CounterName(int c) {
  static const char* const kNames[kNumCounters] = {
      "scalar_ops",   "scalar_mem",       "vpu_ops",
      "vpu_mem",      "gathers",          "scatters",
      "mopas",        "mopa_valid_slots", "atomics",
      "tasks_stolen", "tasks_stolen_remote", "steal_cycles",
      "l1_hits",      "l1_misses",        "l2_hits",
      "l2_misses",    "remote_lines",     "remote_cycles",
      "comm_bytes",   "comm_messages",    "comm_cycles",
      "comm_migrated_particles"};
  return kNames[c];
}

struct LedgerPoint {
  std::array<double, mpic::kNumPhases> phase{};
  double total = 0.0;
  std::array<double, kNumCounters> counter{};

  double Phase(mpic::Phase p) const { return phase[static_cast<size_t>(p)]; }
  double Count(Counter c) const { return counter[static_cast<size_t>(c)]; }

  // Exact equality: the modeled machine is deterministic, so two runs of one
  // workload and seed must agree exactly, not within a tolerance.
  bool operator==(const LedgerPoint& o) const {
    return phase == o.phase && total == o.total && counter == o.counter;
  }
};

// Reads the ledger of `hw` and, when `sim` runs on several modeled ranks, the
// rank comm stats. `sim` may be null (mid-build); a null `hw` reads as zero
// (a root span that outlives any one modeled machine).
inline LedgerPoint ReadLedger(const mpic::HwContext* hw,
                              const mpic::Simulation* sim) {
  LedgerPoint p;
  if (hw == nullptr) return p;
  const mpic::CostLedger& ledger = hw->ledger();
  for (int ph = 0; ph < mpic::kNumPhases; ++ph) {
    p.phase[static_cast<size_t>(ph)] = ledger.PhaseCycles(static_cast<mpic::Phase>(ph));
  }
  p.total = ledger.TotalCycles();
  const mpic::LedgerCounters& c = ledger.counters();
  const double values[] = {
      static_cast<double>(c.scalar_ops),  static_cast<double>(c.scalar_mem),
      static_cast<double>(c.vpu_ops),     static_cast<double>(c.vpu_mem),
      static_cast<double>(c.gathers),     static_cast<double>(c.scatters),
      static_cast<double>(c.mopas),       static_cast<double>(c.mopa_valid_slots),
      static_cast<double>(c.atomics),     static_cast<double>(c.tasks_stolen),
      static_cast<double>(c.tasks_stolen_remote), c.steal_cycles,
      static_cast<double>(c.l1_hits),     static_cast<double>(c.l1_misses),
      static_cast<double>(c.l2_hits),     static_cast<double>(c.l2_misses),
      static_cast<double>(c.remote_lines), c.remote_cycles};
  static_assert(sizeof(values) / sizeof(values[0]) == kCommBytes,
                "one value per ledger counter, in Counter order");
  for (size_t i = 0; i < sizeof(values) / sizeof(values[0]); ++i) {
    p.counter[i] = values[i];
  }
  const mpic::RankComm* comm = sim != nullptr ? sim->rank_comm() : nullptr;
  if (comm != nullptr) {
    for (const mpic::RankCommStats& s : comm->stats()) {
      p.counter[kCommBytes] += static_cast<double>(s.bytes_sent);
      p.counter[kCommMessages] += static_cast<double>(s.messages);
      p.counter[kCommCycles] += s.comm_cycles;
      p.counter[kCommMigrated] += static_cast<double>(s.migrated_particles);
    }
  }
  return p;
}

inline LedgerPoint Delta(const LedgerPoint& from, const LedgerPoint& to) {
  LedgerPoint d;
  for (size_t i = 0; i < d.phase.size(); ++i) d.phase[i] = to.phase[i] - from.phase[i];
  d.total = to.total - from.total;
  for (size_t i = 0; i < d.counter.size(); ++i) {
    d.counter[i] = to.counter[i] - from.counter[i];
  }
  return d;
}

inline void Accumulate(LedgerPoint* sum, const LedgerPoint& d) {
  for (size_t i = 0; i < d.phase.size(); ++i) sum->phase[i] += d.phase[i];
  sum->total += d.total;
  for (size_t i = 0; i < d.counter.size(); ++i) sum->counter[i] += d.counter[i];
}

// Per-step census read from Simulation::last_sim_stats() after a Step span.
struct StepTally {
  int64_t pushed = 0;
  int64_t moved = 0;
  int64_t gpma_rebuilds = 0;
  int64_t global_sorts = 0;  // species that ran a global sort this step
  int64_t health_trips = 0;

  void Add(const StepTally& o) {
    pushed += o.pushed;
    moved += o.moved;
    gpma_rebuilds += o.gpma_rebuilds;
    global_sorts += o.global_sorts;
    health_trips += o.health_trips;
  }
};

struct Span {
  const char* name = "";
  int id = 0;
  int parent = -1;  // the span that caused this one; -1 for a root
  double t0 = 0.0;  // host seconds since the tracer started
  double t1 = 0.0;
  LedgerPoint delta;
  bool window = false;  // a Step inside the measured window
  StepTally tally;      // filled for Step spans
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(4096); }

  // Opens a span on the ledger of `hw` (and comm stats of `sim`, if any).
  int Open(const char* name, int parent, const mpic::HwContext* hw,
           const mpic::Simulation* sim) {
    Span s;
    s.name = name;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    start_.push_back(ReadLedger(hw, sim));
    s.t0 = SecondsBetween(origin_, Clock::now());
    spans_.push_back(s);
    return s.id;
  }

  Span& Close(int id, const mpic::HwContext* hw, const mpic::Simulation* sim) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.t1 = SecondsBetween(origin_, Clock::now());
    s.delta = Delta(start_[static_cast<size_t>(id)], ReadLedger(hw, sim));
    return s;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace-event JSON: one complete ("X") event per span, with the
  // parent id and the non-zero ledger deltas as args.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,"
                   "\"window\":%s,\"cycles\":%.17g",
                   i == 0 ? "" : ",\n", s.name, s.t0 * 1e6, (s.t1 - s.t0) * 1e6,
                   s.id, s.parent, s.window ? "true" : "false", s.delta.total);
      for (int ph = 0; ph < mpic::kNumPhases; ++ph) {
        const double v = s.delta.phase[static_cast<size_t>(ph)];
        if (v != 0.0) {
          std::fprintf(f, ",\"cycles.%s\":%.17g",
                       mpic::PhaseName(static_cast<mpic::Phase>(ph)), v);
        }
      }
      for (int c = 0; c < kNumCounters; ++c) {
        const double v = s.delta.counter[static_cast<size_t>(c)];
        if (v != 0.0) std::fprintf(f, ",\"%s\":%.17g", CounterName(c), v);
      }
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<LedgerPoint> start_;  // by span id
};

}  // namespace perfbench

#endif  // MPIC_PERFBENCH_LEDGER_TRACE_H_
