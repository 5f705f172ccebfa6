// Output checks that do not trust the solver: they recompute costs from
// the prepared atom rows, probe the single-move neighbourhood, and
// verify constraints with sizes straight from the backend. Plus the
// self-test that feeds each check a corrupted answer.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "bench.h"
#include "interaction/doi.h"
#include "util/str.h"
#include "whatif/whatif.h"
#include "workload/compress.h"

namespace perfbench {

using dbdesign::CandidateIndex;
using dbdesign::CoPhyAtom;
using dbdesign::DbmsBackend;
using dbdesign::StrFormat;

namespace {

/// The solver breaks cost ties by footprint: its objective adds this
/// much per page (cophy.cc, kTieBreakPerPage). A neighbour may beat the
/// answer's atom cost by at most that penalty on the pages it adds.
constexpr double kTieBreakPerPage = 1e-5;

bool Near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

double SizeOf(const DbmsBackend& backend, const IndexDef& idx) {
  return backend.EstimateIndexSize(idx).total_pages();
}

/// Σ_q w_q · min over atoms whose `used` ⊆ set (in_set by candidate id).
double CostOfSet(const CoPhyPrepared& p, const std::vector<char>& in_set) {
  double total = 0.0;
  for (size_t q = 0; q < p.rows.size(); ++q) {
    double best = std::numeric_limits<double>::infinity();
    for (const CoPhyAtom& a : p.rows[q]->atoms) {
      bool ok = true;
      for (int i : a.used) ok &= in_set[static_cast<size_t>(i)] != 0;
      if (ok && a.cost < best) best = a.cost;
    }
    total += p.weights[q] * best;
  }
  return total;
}

int CandidateId(const CoPhyPrepared& p, const IndexDef& idx) {
  for (size_t i = 0; i < p.candidates.size(); ++i) {
    if (p.candidates[i].index == idx) return static_cast<int>(i);
  }
  return -1;
}

bool Contains(const std::vector<IndexDef>& v, const IndexDef& idx) {
  return std::find(v.begin(), v.end(), idx) != v.end();
}

/// Feasibility of a candidate-id set under `c` (sizes from the backend).
bool Feasible(const CoPhyPrepared& p, const std::vector<char>& in_set,
              const DesignConstraints& c, const std::vector<double>& sizes,
              double* pages) {
  double total = 0.0;
  std::map<TableId, int> per_table;
  for (size_t i = 0; i < in_set.size(); ++i) {
    if (in_set[i] == 0) continue;
    const IndexDef& idx = p.candidates[i].index;
    if (c.IsVetoed(idx)) return false;
    total += sizes[i];
    per_table[idx.table]++;
  }
  for (const auto& [table, count] : per_table) {
    if (count > c.TableCapOrUnlimited(table)) return false;
  }
  *pages = total;
  return total <= c.storage_budget_pages * (1.0 + 1e-12);
}

}  // namespace

std::string CheckRecommendation(const IndexRecommendation& rec,
                                const CoPhyPrepared& p,
                                const DesignConstraints& c,
                                const DbmsBackend& backend) {
  if (p.rows.empty()) return "no prepared state to check against";
  // Map the answer into the candidate universe.
  std::vector<char> in_set(p.candidates.size(), 0);
  for (const IndexDef& idx : rec.indexes) {
    int id = CandidateId(p, idx);
    if (id < 0) return "recommended index outside the candidate universe";
    in_set[static_cast<size_t>(id)] = 1;
  }
  // (1) Recomputed cost.
  double cost = CostOfSet(p, in_set);
  if (!Near(cost, rec.recommended_cost, 1e-9)) {
    return StrFormat("recomputed cost %.10g != recommended_cost %.10g", cost,
                     rec.recommended_cost);
  }
  // (2) lower_bound <= cost <= base_cost.
  if (rec.lower_bound > rec.recommended_cost * (1.0 + 1e-9) + 1e-9) {
    return StrFormat("lower_bound %.10g above recommended_cost %.10g",
                     rec.lower_bound, rec.recommended_cost);
  }
  if (rec.recommended_cost > rec.base_cost * (1.0 + 1e-9) + 1e-9) {
    return StrFormat("recommended_cost %.10g above base_cost %.10g",
                     rec.recommended_cost, rec.base_cost);
  }
  // (3) Constraints: budget (backend sizes), vetoes, pins, caps.
  double pages = 0.0;
  std::map<TableId, int> per_table;
  for (const IndexDef& idx : rec.indexes) {
    pages += SizeOf(backend, idx);
    per_table[idx.table]++;
    if (c.IsVetoed(idx)) return "vetoed index recommended";
  }
  if (pages > c.storage_budget_pages * (1.0 + 1e-12)) {
    return StrFormat("footprint %.1f pages over budget %.1f", pages,
                     c.storage_budget_pages);
  }
  for (const IndexDef& pin : c.pinned_indexes) {
    if (!Contains(rec.indexes, pin) && !Contains(rec.infeasible_pins, pin)) {
      return "pinned index neither recommended nor reported infeasible";
    }
  }
  for (const auto& [table, count] : per_table) {
    if (count > c.TableCapOrUnlimited(table)) return "table cap exceeded";
  }
  // (4) No feasible single add, drop or swap lowers the cost.
  std::vector<double> sizes(p.candidates.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    sizes[i] = SizeOf(backend, p.candidates[i].index);
  }
  auto probe = [&](const char* move, size_t a, size_t b) -> std::string {
    double npages = 0.0;
    if (!Feasible(p, in_set, c, sizes, &npages)) return "";
    double ncost = CostOfSet(p, in_set);
    double allowance = kTieBreakPerPage * std::max(0.0, npages - pages);
    if (ncost < cost - allowance - 1e-9 * std::max(1.0, cost)) {
      return StrFormat("single %s (%zu, %zu) lowers cost %.10g -> %.10g", move,
                       a, b, cost, ncost);
    }
    return "";
  };
  const size_t n = p.candidates.size();
  for (size_t i = 0; i < n; ++i) {
    bool pinned = c.IsPinned(p.candidates[i].index);
    if (in_set[i] != 0) {
      if (pinned) continue;
      in_set[i] = 0;
      std::string drop = probe("drop", i, i);
      for (size_t j = 0; j < n && drop.empty(); ++j) {
        if (in_set[j] != 0 || j == i) continue;
        in_set[j] = 1;
        drop = probe("swap", i, j);
        in_set[j] = 0;
      }
      in_set[i] = 1;
      if (!drop.empty()) return drop;
    } else {
      in_set[i] = 1;
      std::string add = probe("add", i, i);
      in_set[i] = 0;
      if (!add.empty()) return add;
    }
  }
  return "";
}

namespace {

bool SameRec(const IndexRecommendation& a, const IndexRecommendation& b) {
  return a.indexes == b.indexes && a.recommended_cost == b.recommended_cost;
}

/// The cross-step rules of one session: pins of recommended indexes
/// keep the answer, a veto or a budget cut never lowers the cost, step
/// 5 equals step 2, and every schedule prefix fits the budget.
std::string CrossStepChecks(const SessionResult& r, const DbmsBackend& backend) {
  const IndexRecommendation& cold = r.steps[kRecommend].rec;
  auto worse_or_equal = [](double later, double earlier) {
    return later >= earlier * (1.0 - 1e-9) - 1e-9;
  };
  if (!Near(r.steps[kPin].rec.recommended_cost, cold.recommended_cost, 1e-9) ||
      r.steps[kPin].rec.indexes != cold.indexes) {
    return "pinning recommended indexes changed the answer";
  }
  if (!worse_or_equal(r.steps[kVeto].rec.recommended_cost,
                      cold.recommended_cost)) {
    return "a veto lowered the cost";
  }
  if (!worse_or_equal(r.steps[kCut].rec.recommended_cost,
                      r.steps[kUnveto].rec.recommended_cost)) {
    return "a budget cut lowered the cost";
  }
  if (!SameRec(r.steps[kUnveto].rec, cold)) {
    return "step 5 (un-veto) differs from step 2 (cold recommend)";
  }
  // Deployment schedule: every prefix within the budget of step 6.
  const DeploymentPlan& plan = r.steps[kPlan].plan;
  double budget = r.steps[kPlan].constraints.storage_budget_pages;
  double pages = 0.0;
  for (const auto& step : plan.schedule.steps) {
    pages += SizeOf(backend, step.index);
    if (pages > budget * (1.0 + 1e-12)) {
      return StrFormat("schedule prefix %.1f pages over budget %.1f", pages,
                       budget);
    }
  }
  if (plan.schedule.steps.size() + plan.schedule.skipped.size() !=
      plan.indexes.size()) {
    return "schedule does not cover the recommendation";
  }
  return "";
}

std::string DoiMismatch(int a, int b, double ab, double ba) {
  if (ab == ba) return "";
  return StrFormat("DoI(%d,%d)=%.17g but DoI(%d,%d)=%.17g", a, b, ab, b, a, ba);
}

}  // namespace

std::string CheckSession(const SessionResult& r, const DbmsBackend& backend) {
  for (int s = 0; s < kNumSteps; ++s) {
    if (!r.steps[static_cast<size_t>(s)].ok) {
      return StrFormat("%s failed: %s", StepName(s),
                       r.steps[static_cast<size_t>(s)].error.c_str());
    }
  }
  for (int s : {kRecommend, kPin, kVeto, kUnveto, kCut, kAppend}) {
    const StepRecord& st = r.steps[static_cast<size_t>(s)];
    std::string err =
        CheckRecommendation(st.rec, st.prepared, st.constraints, backend);
    if (!err.empty()) return std::string(StepName(s)) + ": " + err;
  }
  return CrossStepChecks(r, backend);
}

std::string CheckDoiSymmetry(const SessionSpec& spec, const SessionResult& r,
                             DbmsBackend& backend) {
  const DeploymentPlan& plan = r.steps[kPlan].plan;
  if (plan.indexes.size() < 2) return "";
  dbdesign::TemplateClassTable classes;
  for (size_t i = 0; i < spec.workload.size(); ++i) {
    classes.AddInstance(spec.workload.queries[i], spec.workload.WeightOf(i));
  }
  Workload cw = classes.ClassWorkload();
  dbdesign::InumCostModel inum(backend);
  dbdesign::InteractionAnalyzer analyzer(inum, BenchDesignerOptions().doi);
  // The heaviest edges, plus the first pair when no edge exists.
  std::vector<std::pair<int, int>> pairs;
  for (size_t e = 0; e < std::min<size_t>(2, plan.edges.size()); ++e) {
    pairs.emplace_back(plan.edges[e].a, plan.edges[e].b);
  }
  if (pairs.empty()) pairs.emplace_back(0, 1);
  for (auto [a, b] : pairs) {
    std::string err = DoiMismatch(a, b, analyzer.PairDoi(cw, plan.indexes, a, b),
                                  analyzer.PairDoi(cw, plan.indexes, b, a));
    if (!err.empty()) return err;
  }
  return "";
}

ExactCost ComputeExactCost(const SessionSpec& spec, const SessionResult& r,
                           DbmsBackend& backend) {
  ExactCost out;
  dbdesign::WhatIfOptimizer whatif(backend);
  dbdesign::PhysicalDesign design;
  for (const IndexDef& idx : r.steps[kRecommend].rec.indexes) {
    design.AddIndex(idx);
  }
  uint64_t calls0 = backend.num_optimizer_calls();
  double t0 = NowMs();
  out.recommended = whatif.WorkloadCostUnder(spec.workload, design);
  out.empty = whatif.WorkloadCostUnder(spec.workload, dbdesign::PhysicalDesign{});
  out.ms = NowMs() - t0;
  out.optimizer_calls = backend.num_optimizer_calls() - calls0;
  return out;
}

std::string CheckExactCost(const ExactCost& cost) {
  if (!std::isfinite(cost.recommended) || !std::isfinite(cost.empty) ||
      cost.empty <= 0.0) {
    return "exact cost not finite";
  }
  if (cost.recommended > cost.empty * (1.0 + 1e-9)) {
    return StrFormat("exact cost under the recommendation %.6g exceeds the "
                     "empty design's %.6g",
                     cost.recommended, cost.empty);
  }
  return "";
}

std::string CompareResults(const SessionResult& a, const SessionResult& b) {
  for (int s = 0; s < kNumSteps; ++s) {
    const StepRecord& x = a.steps[static_cast<size_t>(s)];
    const StepRecord& y = b.steps[static_cast<size_t>(s)];
    if (x.ok != y.ok) return std::string(StepName(s)) + ": status differs";
    if (s == kPlan) {
      if (x.plan.indexes != y.plan.indexes ||
          x.plan.edges != y.plan.edges ||
          x.plan.schedule.steps.size() != y.plan.schedule.steps.size()) {
        return std::string(StepName(s)) + ": plan differs";
      }
      for (size_t k = 0; k < x.plan.schedule.steps.size(); ++k) {
        if (!(x.plan.schedule.steps[k].index == y.plan.schedule.steps[k].index)) {
          return std::string(StepName(s)) + ": schedule order differs";
        }
      }
    } else if (!SameRec(x.rec, y.rec)) {
      return std::string(StepName(s)) + ": recommendation differs";
    }
  }
  return "";
}

// --- Self-test ------------------------------------------------------------

int RunCheckerSelfTest(Inputs& inputs) {
  // One real session, answered correctly, then corrupted one way per
  // check. Every corruption must be rejected.
  const SessionSpec& spec = inputs.specs.front();
  Schema& schema = inputs.schemas[static_cast<size_t>(spec.schema)];
  DbmsBackend& backend = *schema.backend;
  SessionResult good = RunSoloScript(spec, schema, true, nullptr, 0);
  int missed = 0;
  auto expect = [&](const char* what, const std::string& verdict) {
    bool rejected = !verdict.empty();
    std::printf("selftest %-34s %s%s%s\n", what,
                rejected ? "rejected" : "NOT REJECTED",
                rejected ? ": " : "", verdict.c_str());
    if (!rejected) ++missed;
  };
  std::string base = CheckSession(good, backend);
  std::printf("selftest %-34s %s\n", "uncorrupted session",
              base.empty() ? "accepted" : base.c_str());
  if (!base.empty()) return 1000;

  const StepRecord& cold = good.steps[kRecommend];
  const CoPhyPrepared& p = cold.prepared;
  auto check_rec = [&](const IndexRecommendation& rec,
                       const DesignConstraints& c) {
    return CheckRecommendation(rec, p, c, backend);
  };
  auto cost_of = [&](const std::vector<IndexDef>& set) {
    std::vector<char> in(p.candidates.size(), 0);
    for (const IndexDef& idx : set) in[static_cast<size_t>(CandidateId(p, idx))] = 1;
    return CostOfSet(p, in);
  };

  {  // An index dropped (cost left as reported).
    IndexRecommendation bad = cold.rec;
    bad.indexes.pop_back();
    expect("index dropped", check_rec(bad, cold.constraints));
  }
  {  // A worse swap, reported with its own (consistent) cost.
    IndexRecommendation bad = cold.rec;
    std::string verdict;
    for (const CandidateIndex& cand : p.candidates) {
      if (Contains(bad.indexes, cand.index)) continue;
      IndexRecommendation trial = cold.rec;
      trial.indexes.front() = cand.index;
      trial.recommended_cost = cost_of(trial.indexes);
      trial.lower_bound = 0.0;
      if (trial.recommended_cost > cold.rec.recommended_cost * (1 + 1e-6)) {
        DesignConstraints loose = cold.constraints;
        loose.storage_budget_pages = std::numeric_limits<double>::infinity();
        verdict = check_rec(trial, loose);
        break;
      }
    }
    expect("worse swap", verdict);
  }
  {  // An over-budget set: every candidate, consistently costed.
    IndexRecommendation bad = cold.rec;
    bad.indexes.clear();
    for (const CandidateIndex& cand : p.candidates) bad.indexes.push_back(cand.index);
    bad.recommended_cost = cost_of(bad.indexes);
    bad.lower_bound = 0.0;
    expect("over-budget set", check_rec(bad, cold.constraints));
  }
  {  // A perturbed cost.
    IndexRecommendation bad = cold.rec;
    bad.recommended_cost *= 1.0 + 1e-6;
    expect("perturbed cost", check_rec(bad, cold.constraints));
  }
  {  // A lower bound above the cost.
    IndexRecommendation bad = cold.rec;
    bad.lower_bound = bad.recommended_cost * 1.01 + 1.0;
    expect("lower bound above cost", check_rec(bad, cold.constraints));
  }
  {  // A vetoed index kept.
    DesignConstraints c = cold.constraints;
    c.Veto(cold.rec.indexes.front());
    expect("vetoed index kept", check_rec(cold.rec, c));
  }
  {  // A pin silently dropped.
    DesignConstraints c = cold.constraints;
    for (const CandidateIndex& cand : p.candidates) {
      if (!Contains(cold.rec.indexes, cand.index)) {
        c.Pin(cand.index);
        break;
      }
    }
    expect("pin dropped", check_rec(cold.rec, c));
  }
  {  // A table cap exceeded.
    DesignConstraints c = cold.constraints;
    c.max_indexes_per_table[cold.rec.indexes.front().table] = 0;
    expect("table cap exceeded", check_rec(cold.rec, c));
  }
  // Cross-step rules, checked without the per-step checks (which the
  // corrupted step would trip first).
  {  // A veto that lowers the cost.
    SessionResult bad = good;
    bad.steps[kVeto].rec.recommended_cost = cold.rec.recommended_cost * 0.9;
    expect("veto lowers cost", CrossStepChecks(bad, backend));
  }
  {  // A budget cut that lowers the cost.
    SessionResult bad = good;
    bad.steps[kCut].rec.recommended_cost =
        good.steps[kUnveto].rec.recommended_cost * 0.9;
    expect("budget cut lowers cost", CrossStepChecks(bad, backend));
  }
  {  // Step 5 differs from step 2.
    SessionResult bad = good;
    bad.steps[kUnveto].rec.recommended_cost *= 1.0 + 1e-12;
    expect("step 5 != step 2", CrossStepChecks(bad, backend));
  }
  {  // A schedule prefix over budget.
    SessionResult bad = good;
    bad.steps[kPlan].constraints.storage_budget_pages = 1.0;
    expect("schedule prefix over budget", CrossStepChecks(bad, backend));
  }
  {  // An asymmetric DoI pair.
    expect("asymmetric DoI", DoiMismatch(0, 1, 3.5, 3.5 * (1.0 + 1e-12)));
  }
  {  // An exact cost above the empty design's.
    ExactCost bad = ComputeExactCost(spec, good, backend);
    bad.recommended = bad.empty * 1.01;
    expect("exact cost above empty", CheckExactCost(bad));
  }
  {  // A tenant response that differs from its solo replay.
    SessionResult bad = good;
    bad.steps[kCut].rec.recommended_cost *= 1.0 + 1e-12;
    expect("server != solo replay", CompareResults(good, bad));
  }
  return missed;
}

}  // namespace perfbench
