// The eight-step DBA script, driven through DesignSession directly or
// through the TuningServer. Only the public API calls are timed; the
// bookkeeping the checks need (prepared snapshots) happens between
// timed calls.

#include <algorithm>
#include <utility>

#include "bench.h"

namespace perfbench {

using dbdesign::DesignSession;
using dbdesign::Result;
using dbdesign::SessionOp;
using dbdesign::SessionRequest;
using dbdesign::SessionResponse;
using dbdesign::Status;

const char* StepName(int step) {
  switch (step) {
    case kRecommend: return "step2.recommend_cold";
    case kPin: return "step3.refine_pin";
    case kVeto: return "step4.refine_veto";
    case kUnveto: return "step5.refine_unveto";
    case kCut: return "step6.refine_cut";
    case kPlan: return "step7.plan_deployment";
    case kAppend: return "step8.append_recommend";
  }
  return "?";
}

ConstraintDelta PinDelta(const IndexRecommendation& cold) {
  ConstraintDelta d;
  for (size_t i = 0; i < std::min<size_t>(2, cold.indexes.size()); ++i) {
    d.pin.push_back(cold.indexes[i]);
  }
  return d;
}

ConstraintDelta VetoDelta(const IndexRecommendation& cold) {
  ConstraintDelta d;
  d.unpin = PinDelta(cold).pin;
  if (!cold.indexes.empty()) d.veto.push_back(cold.indexes.front());
  return d;
}

ConstraintDelta UnvetoDelta(const IndexRecommendation& cold) {
  ConstraintDelta d;
  if (!cold.indexes.empty()) d.unveto.push_back(cold.indexes.front());
  return d;
}

ConstraintDelta CutDelta(const IndexRecommendation& before, TableId photoobj) {
  ConstraintDelta d;
  d.storage_budget_pages = 0.5 * before.total_size_pages;
  int on_photoobj = 0;
  for (const IndexDef& idx : before.indexes) on_photoobj += idx.table == photoobj;
  d.table_caps[photoobj] = std::max(1, on_photoobj - 1);
  return d;
}

namespace {

void Fail(StepRecord* s, SessionResult* r, const Status& status) {
  s->ok = false;
  s->error = status.ToString();
  ++r->ops_failed;
}

}  // namespace

SessionResult RunSoloScript(const SessionSpec& spec, Schema& schema,
                            bool detailed, Tracer* tracer, int trace_id) {
  SessionResult r;
  dbdesign::DbmsBackend& backend = *schema.backend;
  if (tracer != nullptr) r.span = tracer->Begin("session", trace_id);
  double start = NowMs();

  // Step 1: open, workload, budget.
  int open_span =
      tracer != nullptr ? tracer->Begin("step1.open", trace_id, r.span) : -1;
  double t0 = NowMs();
  dbdesign::Designer designer(backend, BenchDesignerOptions());
  DesignSession session(designer);
  session.SetWorkload(spec.workload);
  DesignConstraints budget;
  budget.storage_budget_pages = spec.budget_pages;
  Status opened = session.SetConstraints(budget);
  r.open_ms = NowMs() - t0;
  if (tracer != nullptr) tracer->End(open_span);
  ++r.ops_attempted;
  if (!opened.ok()) ++r.ops_failed;

  auto timed = [&](int step, auto&& call) {
    StepRecord& s = r.steps[static_cast<size_t>(step)];
    uint64_t calls0 = backend.num_optimizer_calls();
    uint64_t pops0 = session.inum_populate_count();
    if (tracer != nullptr) s.span = tracer->Begin(StepName(step), trace_id, r.span);
    double s0 = NowMs();
    auto result = call();
    s.ms = NowMs() - s0;
    if (tracer != nullptr) tracer->End(s.span);
    s.backend_calls = backend.num_optimizer_calls() - calls0;
    s.populates = session.inum_populate_count() - pops0;
    s.constraints = session.constraints();
    if (detailed) s.prepared = session.prepared_state();
    ++r.ops_attempted;
    s.ok = result.ok();
    if (!s.ok) Fail(&s, &r, result.status());
    return result;
  };
  auto rec_step = [&](int step, auto&& call) {
    Result<IndexRecommendation> res = timed(step, call);
    if (res.ok()) r.steps[static_cast<size_t>(step)].rec = std::move(res).value();
  };

  rec_step(kRecommend, [&] { return session.Recommend(); });
  const IndexRecommendation cold = r.steps[kRecommend].rec;
  rec_step(kPin, [&] { return session.Refine(PinDelta(cold)); });
  rec_step(kVeto, [&] { return session.Refine(VetoDelta(cold)); });
  rec_step(kUnveto, [&] { return session.Refine(UnvetoDelta(cold)); });
  rec_step(kCut, [&] {
    return session.Refine(CutDelta(r.steps[kUnveto].rec, schema.photoobj));
  });
  Result<DeploymentPlan> plan =
      timed(kPlan, [&] { return session.PlanDeployment(); });
  if (plan.ok()) r.steps[kPlan].plan = std::move(plan).value();
  rec_step(kAppend, [&] {
    session.AddQueries(spec.delta);
    return session.Recommend();
  });

  r.total_ms = NowMs() - start;
  if (tracer != nullptr) tracer->End(r.span);
  return r;
}

SessionResult RunServerScript(dbdesign::TuningServer& server,
                              const SessionSpec& spec, const Schema& schema,
                              bool detailed) {
  SessionResult r;
  double start = NowMs();

  // Step 1.
  double t0 = NowMs();
  Status opened = server.OpenSession(spec.id, schema.name);
  Status budget_set;
  if (opened.ok()) {
    opened = server.WithSession(spec.id, [&](DesignSession& session) {
      session.SetWorkload(spec.workload);
      DesignConstraints budget;
      budget.storage_budget_pages = spec.budget_pages;
      budget_set = session.SetConstraints(budget);
    });
  }
  if (opened.ok()) opened = budget_set;
  r.open_ms = NowMs() - t0;
  ++r.ops_attempted;
  if (!opened.ok()) ++r.ops_failed;

  auto request = [&](int step, SessionOp op, ConstraintDelta delta,
                     bool append) {
    StepRecord& s = r.steps[static_cast<size_t>(step)];
    SessionRequest req;
    req.session = spec.id;
    req.op = op;
    req.delta = std::move(delta);
    double s0 = NowMs();
    Status added;
    if (append) {
      added = server.WithSession(spec.id, [&](DesignSession& session) {
        session.AddQueries(spec.delta);
      });
    }
    std::vector<SessionResponse> resp = server.RunBatch({req});
    s.ms = NowMs() - s0;
    ++r.ops_attempted;
    Status st = !added.ok() ? added : resp.front().status;
    s.ok = st.ok();
    if (!s.ok) {
      Fail(&s, &r, st);
    } else if (resp.front().recommendation.has_value()) {
      s.rec = std::move(*resp.front().recommendation);
    } else if (resp.front().plan.has_value()) {
      s.plan = std::move(*resp.front().plan);
    }
    Status snap = server.WithSession(spec.id, [&](DesignSession& session) {
      s.constraints = session.constraints();
      if (detailed) s.prepared = session.prepared_state();
    });
    (void)snap;
  };

  request(kRecommend, SessionOp::kRecommend, {}, false);
  const IndexRecommendation cold = r.steps[kRecommend].rec;
  request(kPin, SessionOp::kRefine, PinDelta(cold), false);
  request(kVeto, SessionOp::kRefine, VetoDelta(cold), false);
  request(kUnveto, SessionOp::kRefine, UnvetoDelta(cold), false);
  request(kCut, SessionOp::kRefine,
          CutDelta(r.steps[kUnveto].rec, schema.photoobj), false);
  request(kPlan, SessionOp::kPlanDeployment, {}, false);
  request(kAppend, SessionOp::kRecommend, {}, true);

  (void)server.CloseSession(spec.id);
  r.total_ms = NowMs() - start;
  return r;
}

}  // namespace perfbench
