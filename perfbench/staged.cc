// Tracing: an in-memory span recorder, and the staged replay that
// re-runs a session's work through the public calls of each layer
// (compress -> candidates -> INUM populate -> atoms -> solve -> DoI ->
// schedule), timing every call as a child span of the session step it
// mirrors and checking that each staged answer equals the session's.

#include <cstdio>
#include <span>

#include "bench.h"
#include "cophy/candidates.h"
#include "cophy/cophy.h"
#include "interaction/doi.h"
#include "interaction/schedule.h"
#include "util/str.h"
#include "workload/compress.h"

namespace perfbench {

using dbdesign::BoundQuery;
using dbdesign::CandidateIndex;
using dbdesign::CoPhyAdvisor;
using dbdesign::CoPhySolverCache;
using dbdesign::DbmsBackend;
using dbdesign::Result;
using dbdesign::StrFormat;
using dbdesign::TemplateClassTable;

int Tracer::Begin(const std::string& name, int session, int parent) {
  Span s;
  s.name = name;
  s.session = session;
  s.parent = parent;
  s.start_ms = NowMs();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int span) { spans_[static_cast<size_t>(span)].end_ms = NowMs(); }

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double origin = spans_.empty() ? 0.0 : spans_.front().start_ms;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, "
                 "\"end_ms\": %.6f, \"parent\": %d, \"session\": %d}%s\n",
                 i, s.name.c_str(), s.start_ms - origin, s.end_ms - origin,
                 s.parent, s.session, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

namespace {

/// Times `fn` as a span named `name` under `parent`; returns its ms.
template <typename Fn>
double Timed(Tracer& tracer, const char* name, int session, int parent,
             Fn&& fn) {
  int span = tracer.Begin(name, session, parent);
  fn();
  tracer.End(span);
  return tracer.Duration(span);
}

std::string Mismatch(int step, const IndexRecommendation& staged,
                     const IndexRecommendation& session) {
  if (staged.indexes != session.indexes) {
    return StrFormat("%s: staged index set differs (%zu vs %zu indexes)",
                     StepName(step), staged.indexes.size(),
                     session.indexes.size());
  }
  if (staged.recommended_cost != session.recommended_cost) {
    return StrFormat("%s: staged cost %.17g != session cost %.17g",
                     StepName(step), staged.recommended_cost,
                     session.recommended_cost);
  }
  return "";
}

bool Certified(const IndexRecommendation& rec) {
  return rec.solve_time_sec == 0.0;
}

}  // namespace

std::string StagedReplay(const SessionSpec& spec, Schema& schema,
                         const SessionResult& result, Tracer& tracer,
                         int sid, LayerSamples* layers) {
  DbmsBackend& backend = *schema.backend;
  const dbdesign::DesignerOptions opts = BenchDesignerOptions();
  std::string err;

  // --- Step 2: cold recommend, stage by stage.
  int parent = result.steps[kRecommend].span;
  TemplateClassTable classes;
  Workload cw;
  double compress_ms = Timed(tracer, "workload.compress", sid, parent, [&] {
    for (size_t i = 0; i < spec.workload.size(); ++i) {
      classes.AddInstance(spec.workload.queries[i], spec.workload.WeightOf(i));
    }
    cw = classes.ClassWorkload();
  });
  std::vector<CandidateIndex> candidates;
  double cand_ms = Timed(tracer, "cophy.candidates", sid, parent, [&] {
    candidates = dbdesign::GenerateCandidates(backend, cw, opts.cophy.candidates);
    dbdesign::MergePinnedCandidates(backend, result.steps[kRecommend].constraints,
                                    &candidates);
  });
  size_t num_candidates = candidates.size();
  CoPhyAdvisor advisor(backend, opts.cophy);
  double populate_ms = Timed(tracer, "inum.populate", sid, parent, [&] {
    advisor.inum().PrepareQueries(
        std::span<const BoundQuery>(cw.queries.data(), cw.queries.size()));
  });
  uint64_t populates = advisor.inum().stats().populate_optimizations;
  CoPhyPrepared prepared;
  Result<CoPhyPrepared> built = dbdesign::Status::Internal("not run");
  double atoms_ms = Timed(tracer, "cophy.atoms", sid, parent, [&] {
    built = advisor.TryPrepare(cw, std::move(candidates));
  });
  if (!built.ok()) return "staged TryPrepare failed: " + built.status().ToString();
  prepared = std::move(built).value();
  const double cold_stages_ms = cand_ms + populate_ms + atoms_ms;

  CoPhySolverCache cache;
  double solve_ms_total = 0.0;
  double pivots = 0.0, nodes = 0.0, solved = 0.0, reused = 0.0, mono = 0.0;
  std::array<IndexRecommendation, kNumSteps> staged;
  auto solve = [&](int step) -> std::string {
    Result<IndexRecommendation> rec = dbdesign::Status::Internal("not run");
    solve_ms_total += Timed(tracer, "solver.solve", sid,
                            result.steps[static_cast<size_t>(step)].span, [&] {
                              rec = advisor.SolvePrepared(
                                  prepared,
                                  result.steps[static_cast<size_t>(step)].constraints,
                                  &cache);
                            });
    if (!rec.ok()) return "staged solve failed: " + rec.status().ToString();
    staged[static_cast<size_t>(step)] = std::move(rec).value();
    const IndexRecommendation& r = staged[static_cast<size_t>(step)];
    pivots += r.lp_pivots;
    nodes += r.bnb_nodes;
    solved += r.clusters_solved;
    reused += r.clusters_reused;
    mono += r.solved_monolithic ? 1 : 0;
    return Mismatch(step, r, result.steps[static_cast<size_t>(step)].rec);
  };
  double cold_solve_ms = 0.0;
  {
    double before = solve_ms_total;
    err = solve(kRecommend);
    if (!err.empty()) return err;
    cold_solve_ms = solve_ms_total - before;
  }

  // --- Steps 3-6: the session answers a certified refine without the
  // solver; every other refine is a re-solve on the same prepared state.
  double certified = 0.0;
  for (int step : {kPin, kVeto, kUnveto, kCut}) {
    const StepRecord& s = result.steps[static_cast<size_t>(step)];
    const IndexRecommendation& previous = staged[static_cast<size_t>(step - 1)];
    if (Certified(s.rec)) {
      certified += 1.0;
      staged[static_cast<size_t>(step)] = previous;
      err = s.rec.indexes == previous.indexes
                ? ""
                : std::string(StepName(step)) + ": certified answer differs";
    } else {
      err = solve(step);
    }
    if (!err.empty()) return err;
  }

  // --- Step 7: DoI matrix over the class workload + greedy schedule.
  const std::vector<IndexDef>& indexes = staged[kCut].indexes;
  const DeploymentPlan& plan = result.steps[kPlan].plan;
  int plan_span = result.steps[kPlan].span;
  std::vector<dbdesign::InteractionEdge> edges;
  bool doi_ok = true;
  double doi_ms = Timed(tracer, "interaction.doi", sid, plan_span, [&] {
    dbdesign::InteractionAnalyzer analyzer(advisor.inum(), opts.doi);
    Result<std::vector<std::vector<double>>> rows =
        analyzer.TryContributionRows(cw.queries, indexes);
    if (!rows.ok()) {
      doi_ok = false;
      return;
    }
    dbdesign::DoiMatrix matrix;
    matrix.num_indexes = static_cast<int>(indexes.size());
    size_t pairs = indexes.size() * (indexes.size() - 1) / 2;
    matrix.doi.assign(pairs, 0.0);
    for (size_t c = 0; c < rows.value().size(); ++c) {
      for (size_t p = 0; p < pairs; ++p) {
        matrix.doi[p] += cw.WeightOf(c) * rows.value()[c][p];
      }
    }
    edges = matrix.Edges();
  });
  if (!doi_ok) return "staged DoI rows failed";
  if (edges != plan.edges) return "step7: staged DoI edges differ";
  dbdesign::MaterializationSchedule schedule;
  double schedule_ms = Timed(tracer, "interaction.schedule", sid, plan_span, [&] {
    dbdesign::MaterializationScheduler scheduler(advisor.inum());
    schedule = scheduler.Greedy(cw, indexes, result.steps[kPlan].constraints);
  });
  if (schedule.steps.size() != plan.schedule.steps.size()) {
    return "step7: staged schedule length differs";
  }
  for (size_t k = 0; k < schedule.steps.size(); ++k) {
    if (!(schedule.steps[k].index == plan.schedule.steps[k].index)) {
      return "step7: staged schedule order differs";
    }
  }

  // --- Step 8: the append, mirrored delta by delta.
  int append_span = result.steps[kAppend].span;
  size_t first_new = classes.size();
  compress_ms += Timed(tracer, "workload.compress", sid, append_span, [&] {
    for (const BoundQuery& q : spec.delta) classes.AddInstance(q, 1.0);
  });
  if (classes.size() > first_new) {
    Workload added;
    std::vector<BoundQuery> reps;
    for (size_t c = first_new; c < classes.size(); ++c) {
      added.Add(classes.classes()[c].representative, classes.classes()[c].weight);
      reps.push_back(classes.classes()[c].representative);
    }
    std::vector<CandidateIndex> universe = prepared.candidates;
    bool grew = false;
    cand_ms += Timed(tracer, "cophy.candidates", sid, append_span, [&] {
      for (const CandidateIndex& c :
           dbdesign::GenerateCandidates(backend, added, opts.cophy.candidates)) {
        bool present = false;
        for (const CandidateIndex& have : universe) present |= have.index == c.index;
        if (!present) {
          universe.push_back(c);
          grew = true;
        }
      }
    });
    populate_ms += Timed(tracer, "inum.populate", sid, append_span, [&] {
      advisor.inum().PrepareQueries(
          std::span<const BoundQuery>(reps.data(), reps.size()));
    });
    atoms_ms += Timed(tracer, "cophy.atoms", sid, append_span, [&] {
      if (grew) {
        prepared = advisor.Prepare(classes.ClassWorkload(), std::move(universe));
        return;
      }
      for (size_t c = first_new; c < classes.size(); ++c) {
        const BoundQuery& rep = classes.classes()[c].representative;
        auto row = std::make_shared<dbdesign::CoPhyAtomRow>();
        row->atoms = advisor.BuildAtoms(rep, prepared.candidates);
        row->base_cost = advisor.inum().Cost(rep, dbdesign::PhysicalDesign{});
        prepared.num_atoms += row->atoms.size();
        prepared.rows.push_back(std::move(row));
        prepared.weights.push_back(classes.classes()[c].weight);
      }
      prepared.RefreshClusters();
    });
    cache.Clear();
  }
  prepared.base_cost = 0.0;
  for (size_t c = 0; c < prepared.weights.size(); ++c) {
    prepared.weights[c] = classes.classes()[c].weight;
    prepared.base_cost += prepared.weights[c] * prepared.rows[c]->base_cost;
  }
  if (Certified(result.steps[kAppend].rec)) {
    // Certificate reuse: the step-6 optimum re-weighted per class.
    IndexRecommendation r = staged[kCut];
    r.recommended_cost = 0.0;
    for (size_t c = 0; c < staged[kCut].per_query_cost.size(); ++c) {
      r.recommended_cost +=
          classes.classes()[c].weight * staged[kCut].per_query_cost[c];
    }
    err = Mismatch(kAppend, r, result.steps[kAppend].rec);
  } else {
    err = solve(kAppend);
  }
  if (!err.empty()) return err;

  // --- Per-layer samples of this session.
  layers->Add("workload.compress_ms", compress_ms);
  layers->Add("workload.template_classes", static_cast<double>(first_new));
  layers->Add("cophy.candidates_ms", cand_ms);
  layers->Add("cophy.candidates", static_cast<double>(num_candidates));
  layers->Add("inum.populate_ms", populate_ms);
  layers->Add("inum.populates", static_cast<double>(populates));
  layers->Add("cophy.atoms_ms", atoms_ms);
  layers->Add("cophy.atoms", static_cast<double>(staged[kRecommend].num_atoms));
  layers->Add("solver.solve_ms", solve_ms_total);
  layers->Add("solver.lp_pivots", pivots);
  layers->Add("solver.bnb_nodes", nodes);
  layers->Add("solver.clusters_solved", solved);
  layers->Add("solver.clusters_reused", reused);
  layers->Add("solver.monolithic_solves", mono);
  // Session Recommend minus the stages it is made of.
  layers->Add("core.recommend_self_ms",
              result.steps[kRecommend].ms - cold_stages_ms - cold_solve_ms);
  layers->Add("core.certified_refines", certified);
  layers->Add("interaction.doi_ms", doi_ms);
  layers->Add("interaction.schedule_ms", schedule_ms);
  layers->Add("interaction.doi_rows_computed",
              static_cast<double>(plan.doi_rows_computed));
  layers->Add("interaction.doi_rows_reused",
              static_cast<double>(plan.doi_rows_reused));
  layers->Add("interaction.schedules_reused", plan.schedule_reused ? 1.0 : 0.0);
  return "";
}

}  // namespace perfbench
