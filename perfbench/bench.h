// Shared types of the steering-loop benchmark (see README.md).
//
// A workload is a pool of scripted DBA sessions. Every session runs the
// same eight-step script against the public DesignSession API (or, for
// the `tenants` workload, through TuningServer::RunBatch):
//
//   1. open, SetWorkload, set a storage budget
//   2. cold Recommend
//   3. Refine: pin the two top recommended indexes (certificate reuse)
//   4. Refine: unpin them and veto the top index (re-solve)
//   5. Refine: un-veto it (re-solve; must equal step 2)
//   6. Refine: cut the budget below the footprint + cap photoobj
//   7. PlanDeployment
//   8. AddQueries (small delta) + Recommend

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/inmemory_backend.h"
#include "core/session.h"
#include "server/server.h"
#include "storage/database.h"

namespace perfbench {

using dbdesign::ConstraintDelta;
using dbdesign::CoPhyPrepared;
using dbdesign::DeploymentPlan;
using dbdesign::DesignConstraints;
using dbdesign::IndexDef;
using dbdesign::IndexRecommendation;
using dbdesign::TableId;
using dbdesign::Workload;

inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 step: derives independent sub-seeds from the run seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// One SDSS substrate: database, backend seam and its size.
struct Schema {
  std::string name;
  std::unique_ptr<dbdesign::Database> db;
  std::unique_ptr<dbdesign::InMemoryBackend> backend;
  double data_pages = 0.0;
  TableId photoobj = dbdesign::kInvalidTableId;
};

/// One scripted session's inputs.
struct SessionSpec {
  std::string id;
  int schema = 0;
  Workload workload;
  std::vector<dbdesign::BoundQuery> delta;  ///< step 8
  double budget_pages = 0.0;
};

/// Everything a workload runs on, built in set-up.
struct Inputs {
  std::string workload;
  uint64_t seed = 0;
  std::vector<Schema> schemas;
  std::vector<SessionSpec> specs;
  /// Nominal wall time of one pass over `specs` on a 4-vCPU VM. A run
  /// of --seconds s makes round(s / pass_seconds) passes, at least two,
  /// so every run of a given length attempts the same operations.
  double pass_seconds = 1.0;
  /// tenants only: the shared atom store's byte budget.
  size_t atom_store_bytes = 0;
  /// Set-up telemetry for the storage/sql layers.
  double sdss_build_ms = 0.0;      ///< mean per database
  double parse_bind_us = 0.0;      ///< mean per query
};

/// Builds the inputs of `workload` from `seed`. Unknown workload names
/// return false.
bool BuildInputs(const std::string& workload, uint64_t seed, Inputs* out);

/// Designer options every session of the benchmark uses (serial
/// costing, default CoPhy settings).
dbdesign::DesignerOptions BenchDesignerOptions();

// --- The session script -------------------------------------------------

enum Step {
  kRecommend = 0,  ///< step 2
  kPin,            ///< step 3
  kVeto,           ///< step 4
  kUnveto,         ///< step 5
  kCut,            ///< step 6
  kPlan,           ///< step 7
  kAppend,         ///< step 8 (AddQueries + Recommend)
  kNumSteps,
};

const char* StepName(int step);

/// What one step returned, plus the state the checks need.
struct StepRecord {
  double ms = 0.0;
  bool ok = false;
  std::string error;
  IndexRecommendation rec;       ///< recommendation steps
  DeploymentPlan plan;           ///< kPlan
  DesignConstraints constraints; ///< constraints the step ran under
  CoPhyPrepared prepared;        ///< prepared state right after the step
  uint64_t backend_calls = 0;    ///< optimizer calls during the step
  uint64_t populates = 0;        ///< INUM populates during the step
  int span = -1;                 ///< tracer span of the step (-1: untraced)
};

struct SessionResult {
  int spec = -1;
  double open_ms = 0.0;   ///< step 1
  double total_ms = 0.0;  ///< steps 1-8
  std::array<StepRecord, kNumSteps> steps;
  int ops_attempted = 0;
  int ops_failed = 0;
  int span = -1;  ///< tracer span of the whole session (-1: untraced)
};

/// Constraint edits of steps 3, 4, 5 and 6, derived from earlier
/// answers exactly as a DBA would make them.
ConstraintDelta PinDelta(const IndexRecommendation& cold);
ConstraintDelta VetoDelta(const IndexRecommendation& cold);
ConstraintDelta UnvetoDelta(const IndexRecommendation& cold);
ConstraintDelta CutDelta(const IndexRecommendation& before, TableId photoobj);

class Tracer;

/// Runs the script on a private DesignSession (no server). `detailed`
/// keeps prepared snapshots for the checks; `tracer` (optional) records
/// one span per step.
SessionResult RunSoloScript(const SessionSpec& spec, Schema& schema,
                            bool detailed, Tracer* tracer, int trace_id);

/// Runs the script through `server`: step 1 and the AddQueries half of
/// step 8 via WithSession, every other step as a one-request RunBatch.
SessionResult RunServerScript(dbdesign::TuningServer& server,
                              const SessionSpec& spec, const Schema& schema,
                              bool detailed);

// --- Output checks (checks.cc) ------------------------------------------

/// Solver-independent checks of one recommendation: recomputed cost,
/// bounds, constraints, and single add/drop/swap optimality. Returns ""
/// when every check passes, else the first failure.
std::string CheckRecommendation(const IndexRecommendation& rec,
                                const CoPhyPrepared& prepared,
                                const DesignConstraints& constraints,
                                const dbdesign::DbmsBackend& backend);

/// Cross-step checks of one session (monotonicity, step 5 == step 2,
/// schedule prefixes within budget) plus CheckRecommendation on every
/// recommendation step.
std::string CheckSession(const SessionResult& result,
                         const dbdesign::DbmsBackend& backend);

/// DoI symmetry on the deployment plan's heaviest pairs, computed with
/// a fresh INUM instance over the session's class workload.
std::string CheckDoiSymmetry(const SessionSpec& spec,
                             const SessionResult& result,
                             dbdesign::DbmsBackend& backend);

/// Exact what-if costs of the raw workload under the cold
/// recommendation and under the empty design.
struct ExactCost {
  double recommended = 0.0;
  double empty = 0.0;
  double ms = 0.0;
  uint64_t optimizer_calls = 0;
};
ExactCost ComputeExactCost(const SessionSpec& spec,
                           const SessionResult& result,
                           dbdesign::DbmsBackend& backend);
std::string CheckExactCost(const ExactCost& cost);

/// Bit-identity of two runs of the same script (server vs solo replay).
std::string CompareResults(const SessionResult& a, const SessionResult& b);

/// Feeds every check a corrupted answer; returns the number of checks
/// that failed to reject theirs (0 = every check can fail).
int RunCheckerSelfTest(Inputs& inputs);

// --- Tracing (staged.cc) ------------------------------------------------

struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  int session = -1;
};

/// In-memory span recorder; written out as JSON when the run ends.
class Tracer {
 public:
  int Begin(const std::string& name, int session, int parent = -1);
  void End(int span);
  double Duration(int span) const {
    return spans_[static_cast<size_t>(span)].end_ms -
           spans_[static_cast<size_t>(span)].start_ms;
  }
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Per-layer samples collected by the staged replay (one entry per
/// session unless noted).
struct LayerSamples {
  std::map<std::string, std::vector<double>> values;
  void Add(const std::string& name, double v) { values[name].push_back(v); }
};

/// Replays `result`'s session through the staged path of public layer
/// calls, recording spans under the session's step spans, and checks
/// that every staged answer equals the session's. Returns "" on
/// agreement, else the first mismatch.
std::string StagedReplay(const SessionSpec& spec, Schema& schema,
                         const SessionResult& result, Tracer& tracer,
                         int trace_id, LayerSamples* layers);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
