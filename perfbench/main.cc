// Steering-loop benchmark: command-line entry point.
//
//   perfbench --workload <sdss-loop|adhoc-wide|tenants> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-file <path>]
//   perfbench --selftest
//
// Builds the workload's inputs from the seed (timed as setup_s), runs
// whole passes over the pool of scripted DBA sessions for about
// --seconds (a fixed number of passes for a given --seconds, at least
// two), then checks every distinct session's outputs without trusting
// the solver. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}
// with the end-to-end metrics (--trace 0) or the per-layer metrics from
// the staged, traced replay (--trace 1). The line before it carries
// tails, the noise floor and run metadata. The exit code is non-zero
// only when an output check fails, never because of a timing.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "util/logging.h"
#include "util/str.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using dbdesign::StrFormat;

/// Taken during static initialisation: setup_s runs from here.
const double g_process_start_ms = NowMs();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string trace_file;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (k == "--selftest") {
      a->selftest = true;
      continue;
    }
    if ((v = next()) == nullptr) return false;
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v);
    else if (k == "--trace") a->trace = std::atoi(v) != 0;
    else if (k == "--trace-file") a->trace_file = v;
    else return false;
  }
  return !a->workload.empty() || a->selftest;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double logs = 0.0;
  for (double x : v) logs += std::log(x);
  return std::exp(logs / static_cast<double>(v.size()));
}

/// Fixed spin kernel run on `threads` threads at once; median ms of 3.
double NoiseFloorMs(int threads) {
  std::vector<double> reps;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::thread> pool;
    std::atomic<uint64_t> sink{0};
    double t0 = NowMs();
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&sink, t] {
        uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(t);
        for (int i = 0; i < 30'000'000; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        sink += x;
      });
    }
    for (std::thread& th : pool) th.join();
    reps.push_back(NowMs() - t0);
  }
  return Median(reps);
}

/// Steal ticks summed over all CPUs (/proc/stat), or -1.
long long StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long v[8] = {0};
  if (!(in >> cpu) || cpu != "cpu") return -1;
  for (long long& x : v) {
    if (!(in >> x)) return -1;
  }
  return v[7];
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Latency samples of the timed phase, which runs a fixed number of
/// whole passes over the session pool. A step's end-to-end figure is
/// the geometric mean, over the pool's sessions, of each session's
/// fastest run of the step. The fastest run: a session's runs are a
/// pass (seconds) apart, so bursts of load from elsewhere on a shared
/// machine rarely meet all of them, and a fixed pass count keeps its
/// meaning the same in every run. The geometric mean: sessions' times
/// spread roughly log-uniformly over an order of magnitude, where the
/// median jumps with the seed's draw of sessions and the geometric mean
/// does not; every session's speed-up counts in proportion. Throughput
/// is that of the fastest pass, for the same reason as the fastest run.
/// Every run is kept for the p50/p90/p99 tails.
struct Samples {
  /// runs[spec][pass]: the step times of one session run.
  std::vector<std::vector<std::array<double, kNumSteps>>> runs;
  std::vector<double> pass_ms;

  void Add(size_t spec, const SessionResult& r) {
    if (runs.size() <= spec) runs.resize(spec + 1);
    std::array<double, kNumSteps> t{};
    for (size_t s = 0; s < kNumSteps; ++s) t[s] = r.steps[s].ms;
    runs[spec].push_back(t);
  }
  /// All runs of `steps`, pooled.
  std::vector<double> All(std::initializer_list<int> steps) const {
    std::vector<double> out;
    for (const auto& spec : runs) {
      for (const auto& t : spec) {
        for (int s : steps) out.push_back(t[static_cast<size_t>(s)]);
      }
    }
    return out;
  }
  /// Each session's fastest run of each of `steps`, pooled.
  std::vector<double> Best(std::initializer_list<int> steps) const {
    std::vector<double> out;
    for (const auto& spec : runs) {
      for (int s : steps) {
        double best = spec.front()[static_cast<size_t>(s)];
        for (const auto& t : spec) best = std::min(best, t[static_cast<size_t>(s)]);
        out.push_back(best);
      }
    }
    return out;
  }
  int sessions() const { return static_cast<int>(runs.size() * pass_ms.size()); }
  double FastestPassMs() const {
    return *std::min_element(pass_ms.begin(), pass_ms.end());
  }
};

struct Run {
  Args args;
  Inputs inputs;
  double setup_s = 0.0;
  Samples samples;
  int passes_planned = 0;
  double timed_ms = 0.0;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> errors;
  /// First-pass result per spec (the one the checks examine).
  std::vector<SessionResult> first;
  /// tenants: server-side results of every pass, for the solo compare.
  std::vector<std::vector<SessionResult>> passes;
  std::vector<dbdesign::TuningServerStats> server_stats;
  /// --trace 1.
  Tracer tracer;
  LayerSamples layers;
  std::vector<double> overhead;  ///< traced/untraced - 1, paired
  std::vector<SessionResult> plain_first;  ///< untraced twin of `first`

  void Error(const std::string& e) {
    if (errors.size() < 20) errors.push_back(e);
  }
  void Count(const SessionResult& r) {
    attempted += r.ops_attempted;
    failed += r.ops_failed;
  }
};

dbdesign::TuningServerOptions ServerOptions(const Inputs& in) {
  dbdesign::TuningServerOptions o;
  o.designer = BenchDesignerOptions();
  o.num_threads = 1;
  o.cache_budget.atom_store_bytes = in.atom_store_bytes;
  return o;
}

std::unique_ptr<dbdesign::TuningServer> MakeServer(Inputs& in) {
  auto server = std::make_unique<dbdesign::TuningServer>(ServerOptions(in));
  for (Schema& s : in.schemas) {
    dbdesign::Status st = server->RegisterSchema(s.name, *s.backend);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
      std::exit(2);
    }
  }
  return server;
}

// --- Timed phase: solo sessions (sdss-loop, adhoc-wide) ------------------

void RunSoloLoop(Run& run) {
  const size_t pool = run.inputs.specs.size();
  run.first.resize(pool);
  run.plain_first.resize(pool);
  double t0 = NowMs();
  for (int pass = 0; pass < run.passes_planned; ++pass) {
    const bool first_pass = pass == 0;
    double p0 = NowMs();
    for (size_t k = 0; k < pool; ++k) {
      const SessionSpec& spec = run.inputs.specs[k];
      Schema& schema = run.inputs.schemas[static_cast<size_t>(spec.schema)];
      SessionResult plain = RunSoloScript(
          spec, schema, first_pass && !run.args.trace, nullptr, -1);
      run.Count(plain);
      run.samples.Add(k, plain);
      if (!first_pass) {
        std::string err = CompareResults(run.first[k], plain);
        if (!err.empty()) run.Error(spec.id + " repeat differs: " + err);
        continue;
      }
      if (run.args.trace) {
        // Paired traced twin: spans on every step, then the staged replay.
        SessionResult traced =
            RunSoloScript(spec, schema, true, &run.tracer, static_cast<int>(k));
        run.overhead.push_back(traced.total_ms / plain.total_ms - 1.0);
        std::string err = StagedReplay(spec, schema, traced, run.tracer,
                                       static_cast<int>(k), &run.layers);
        if (!err.empty()) run.Error(spec.id + " staged replay: " + err);
        run.plain_first[k] = plain;
        plain = std::move(traced);
      }
      run.first[k] = std::move(plain);
    }
    run.samples.pass_ms.push_back(NowMs() - p0);
  }
  run.timed_ms = NowMs() - t0;
}

// --- Timed phase: tenants through the server ----------------------------

constexpr int kClientThreads = 2;

void RunTenantLoop(Run& run, std::unique_ptr<dbdesign::TuningServer> server) {
  const size_t tenants = run.inputs.specs.size();
  double t0 = NowMs();
  for (int pass = 0; pass < run.passes_planned; ++pass) {
    if (server == nullptr) server = MakeServer(run.inputs);
    double p0 = NowMs();
    std::vector<SessionResult> results(tenants);
    std::atomic<size_t> next{0};
    auto client = [&] {
      for (size_t k = next++; k < tenants; k = next++) {
        const SessionSpec& spec = run.inputs.specs[k];
        results[k] = RunServerScript(
            *server, spec, run.inputs.schemas[static_cast<size_t>(spec.schema)],
            pass == 0);
      }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kClientThreads; ++c) clients.emplace_back(client);
    for (std::thread& c : clients) c.join();
    run.samples.pass_ms.push_back(NowMs() - p0);
    run.server_stats.push_back(server->stats());
    server.reset();
    for (size_t k = 0; k < tenants; ++k) {
      run.Count(results[k]);
      run.samples.Add(k, results[k]);
    }
    if (pass == 0) run.first = results;
    run.passes.push_back(std::move(results));
  }
  run.timed_ms = NowMs() - t0;
}

// --- Post-phase checks ----------------------------------------------------

struct Post {
  double exact_recommended = 0.0;
  double exact_empty = 0.0;
  std::vector<double> exact_ms;
  std::vector<double> exact_calls;
  std::vector<double> request_overhead_ms;
  std::vector<dbdesign::TuningServerStats> server_stats;
};

void CheckOutputs(Run& run, Post* post) {
  Inputs& in = run.inputs;
  for (size_t k = 0; k < in.specs.size(); ++k) {
    const SessionSpec& spec = in.specs[k];
    Schema& schema = in.schemas[static_cast<size_t>(spec.schema)];
    const SessionResult& r = run.first[k];
    std::string err = CheckSession(r, *schema.backend);
    if (err.empty()) err = CheckDoiSymmetry(spec, r, *schema.backend);
    ExactCost exact = ComputeExactCost(spec, r, *schema.backend);
    if (err.empty()) err = CheckExactCost(exact);
    if (!err.empty()) run.Error(spec.id + ": " + err);
    post->exact_recommended += exact.recommended;
    post->exact_empty += exact.empty;
    post->exact_ms.push_back(exact.ms);
    post->exact_calls.push_back(static_cast<double>(exact.optimizer_calls));
  }
}

/// Solo replay of every tenant (the server answers must equal it); in a
/// traced run also the traced twin and the staged replay.
void ReplayTenantsSolo(Run& run, Post* post) {
  Inputs& in = run.inputs;
  run.plain_first.resize(in.specs.size());
  for (size_t k = 0; k < in.specs.size(); ++k) {
    const SessionSpec& spec = in.specs[k];
    Schema& schema = in.schemas[static_cast<size_t>(spec.schema)];
    SessionResult solo = RunSoloScript(spec, schema, false, nullptr, -1);
    for (const std::vector<SessionResult>& pass : run.passes) {
      std::string err = CompareResults(pass[k], solo);
      if (!err.empty()) run.Error(spec.id + " server vs solo: " + err);
      for (int s = 0; s < kNumSteps; ++s) {
        post->request_overhead_ms.push_back(pass[k].steps[static_cast<size_t>(s)].ms -
                                            solo.steps[static_cast<size_t>(s)].ms);
      }
    }
    if (!run.args.trace) continue;
    SessionResult traced =
        RunSoloScript(spec, schema, true, &run.tracer, static_cast<int>(k));
    run.overhead.push_back(traced.total_ms / solo.total_ms - 1.0);
    std::string err = StagedReplay(spec, schema, traced, run.tracer,
                                   static_cast<int>(k), &run.layers);
    if (!err.empty()) run.Error(spec.id + " staged replay: " + err);
    run.plain_first[k] = std::move(traced);
  }
  post->server_stats = run.server_stats;
}

/// Traced runs of the solo workloads also drive a few of their sessions
/// through a one-client TuningServer, so the server layer's counters and
/// request overhead are measured on every workload.
void ServerProbe(Run& run, Post* post) {
  Inputs& in = run.inputs;
  auto server = MakeServer(in);
  size_t n = std::min<size_t>(in.specs.size(), 6);
  for (size_t k = 0; k < n; ++k) {
    const SessionSpec& spec = in.specs[k];
    SessionResult r = RunServerScript(
        *server, spec, in.schemas[static_cast<size_t>(spec.schema)], false);
    std::string err = CompareResults(r, run.first[k]);
    if (!err.empty()) run.Error(spec.id + " server vs solo: " + err);
    for (int s = 0; s < kNumSteps; ++s) {
      post->request_overhead_ms.push_back(r.steps[static_cast<size_t>(s)].ms -
                                          run.plain_first[k].steps[static_cast<size_t>(s)].ms);
    }
  }
  post->server_stats.push_back(server->stats());
}

// --- Output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  return StrFormat("%.10g", v);
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    out += StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", ms[i].name.c_str(),
                     Num(ms[i].value).c_str(), ms[i].unit.c_str());
  }
  return out + "}";
}

std::string TailJson(const char* name, const std::vector<double>& v) {
  return StrFormat("\"%s\": {\"n\": %zu, \"p50\": %s, \"p90\": %s, \"p99\": %s}",
                   name, v.size(), Num(Quantile(v, 0.5)).c_str(),
                   Num(Quantile(v, 0.9)).c_str(), Num(Quantile(v, 0.99)).c_str());
}

std::vector<Metric> EndToEnd(const Run& run, const Post& post) {
  const Samples& s = run.samples;
  return {
      {"setup_s", run.setup_s, "s"},
      {"recommend_cold_ms", GeoMean(s.Best({kRecommend})), "ms"},
      {"refine_resolve_ms", GeoMean(s.Best({kVeto, kUnveto, kCut})), "ms"},
      {"refine_certified_ms", GeoMean(s.Best({kPin})), "ms"},
      {"plan_deployment_ms", GeoMean(s.Best({kPlan})), "ms"},
      {"append_ms", GeoMean(s.Best({kAppend})), "ms"},
      {"sessions_per_s", s.runs.size() / (s.FastestPassMs() / 1000.0), "1/s"},
      {"design_cost_ratio", post.exact_recommended / post.exact_empty, "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayer(const Run& run, const Post& post) {
  const auto& L = run.layers.values;
  auto med = [&](const char* name) {
    auto it = L.find(name);
    return it == L.end() ? 0.0 : Median(it->second);
  };
  auto sum = [&](const char* name) {
    auto it = L.find(name);
    double t = 0.0;
    if (it != L.end()) for (double v : it->second) t += v;
    return t;
  };
  std::vector<double> refine_calls, refine_pops;
  for (const SessionResult& r : run.plain_first) {
    double calls = 0.0, pops = 0.0;
    for (int st : {kPin, kVeto, kUnveto, kCut}) {
      calls += static_cast<double>(r.steps[static_cast<size_t>(st)].backend_calls);
      pops += static_cast<double>(r.steps[static_cast<size_t>(st)].populates);
    }
    refine_calls.push_back(calls);
    refine_pops.push_back(pops);
  }
  std::vector<double> hits, misses, evictions, repop, peak, coalesced;
  for (const dbdesign::TuningServerStats& st : post.server_stats) {
    hits.push_back(static_cast<double>(st.atoms.hits));
    misses.push_back(static_cast<double>(st.atoms.misses));
    evictions.push_back(static_cast<double>(st.atoms.evictions));
    repop.push_back(static_cast<double>(st.atoms.repopulates));
    peak.push_back(static_cast<double>(st.atom_peak_hot_bytes) / (1024.0 * 1024.0));
    coalesced.push_back(static_cast<double>(st.coalescer.coalesced_calls));
  }
  double pivots = sum("solver.lp_pivots");
  return {
      {"storage.sdss_build_ms", run.inputs.sdss_build_ms, "ms"},
      {"sql.parse_bind_us", run.inputs.parse_bind_us, "us"},
      {"workload.compress_ms", med("workload.compress_ms"), "ms"},
      {"workload.template_classes", med("workload.template_classes"), "count"},
      {"cophy.candidates_ms", med("cophy.candidates_ms"), "ms"},
      {"cophy.candidates", med("cophy.candidates"), "count"},
      {"inum.populate_ms", med("inum.populate_ms"), "ms"},
      {"inum.populates", med("inum.populates"), "count"},
      {"cophy.atoms_ms", med("cophy.atoms_ms"), "ms"},
      {"cophy.atoms", med("cophy.atoms"), "count"},
      {"solver.solve_ms", med("solver.solve_ms"), "ms"},
      {"solver.lp_pivots", med("solver.lp_pivots"), "count"},
      {"solver.bnb_nodes", med("solver.bnb_nodes"), "count"},
      {"solver.us_per_pivot",
       pivots > 0 ? sum("solver.solve_ms") * 1000.0 / pivots : 0.0, "us"},
      {"solver.clusters_solved", med("solver.clusters_solved"), "count"},
      {"solver.clusters_reused", med("solver.clusters_reused"), "count"},
      {"solver.monolithic_solves", med("solver.monolithic_solves"), "count"},
      {"core.recommend_self_ms", med("core.recommend_self_ms"), "ms"},
      {"core.certified_refines", med("core.certified_refines"), "count"},
      {"core.refine_backend_calls", Median(refine_calls), "count"},
      {"core.refine_populates", Median(refine_pops), "count"},
      {"interaction.doi_ms", med("interaction.doi_ms"), "ms"},
      {"interaction.schedule_ms", med("interaction.schedule_ms"), "ms"},
      {"interaction.doi_rows_computed", med("interaction.doi_rows_computed"), "count"},
      {"interaction.doi_rows_reused", med("interaction.doi_rows_reused"), "count"},
      {"interaction.schedules_reused", med("interaction.schedules_reused"), "count"},
      {"server.atom_hits", Median(hits), "count"},
      {"server.atom_misses", Median(misses), "count"},
      {"server.atom_evictions", Median(evictions), "count"},
      {"server.atom_repopulates", Median(repop), "count"},
      {"server.atom_peak_hot_mb", Median(peak), "MB"},
      {"server.coalesced_calls", Median(coalesced), "count"},
      {"server.request_overhead_ms", Median(post.request_overhead_ms), "ms"},
      {"whatif.exact_cost_ms", Median(post.exact_ms), "ms"},
      {"backend.optimizer_calls", Median(post.exact_calls), "count"},
      {"trace.overhead_pct", Median(run.overhead) * 100.0, "%"},
  };
}

int Main(int argc, char** argv) {
  dbdesign::SetLogLevel(dbdesign::LogLevel::kError);
  Run run;
  if (!ParseArgs(argc, argv, &run.args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <sdss-loop|adhoc-wide|tenants> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]\n"
                 "       perfbench --selftest\n");
    return 2;
  }
  if (run.args.selftest) {
    Inputs in;
    BuildInputs("sdss-loop", run.args.seed, &in);
    int missed = RunCheckerSelfTest(in);
    std::printf("selftest: %s\n", missed == 0 ? "every check rejected its "
                                                "corrupted answer"
                                              : "SOME CHECKS DID NOT REJECT");
    return missed == 0 ? 0 : 1;
  }

  // Set-up: databases + ANALYZE, query generation and binding, server.
  if (!BuildInputs(run.args.workload, run.args.seed, &run.inputs)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 run.args.workload.c_str());
    return 2;
  }
  const bool tenants = run.args.workload == "tenants";
  std::unique_ptr<dbdesign::TuningServer> server;
  if (tenants) server = MakeServer(run.inputs);
  run.setup_s = (NowMs() - g_process_start_ms) / 1000.0;
  run.passes_planned = std::max(
      2, static_cast<int>(std::lround(run.args.seconds / run.inputs.pass_seconds)));

  const int threads = tenants ? kClientThreads : 1;
  double floor_before = NoiseFloorMs(threads);
  long long steal0 = StealTicks();
  if (tenants) {
    RunTenantLoop(run, std::move(server));
  } else {
    RunSoloLoop(run);
  }
  long long steal1 = StealTicks();
  double floor_after = NoiseFloorMs(threads);

  Post post;
  CheckOutputs(run, &post);
  if (tenants) {
    ReplayTenantsSolo(run, &post);
  } else if (run.args.trace) {
    ServerProbe(run, &post);
  }
  if (run.args.trace && !run.args.trace_file.empty() &&
      !run.tracer.WriteJson(run.args.trace_file)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 run.args.trace_file.c_str());
  }

  for (const std::string& e : run.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = run.errors.empty();
  const Samples& s = run.samples;
  std::printf(
      "{\"info\": {\"workload\": \"%s\", \"seed\": %llu, \"sessions\": %d, "
      "\"distinct_sessions\": %zu, \"passes\": %zu, \"timed_s\": %s, "
      "\"fastest_pass_s\": %s, \"threads\": %d, "
      "\"noise_floor_ms\": [%s, %s], \"steal_ticks\": %lld, "
      "\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"attempted\": %lld, \"failed\": %lld, \"tails_ms\": {%s, %s, %s, %s, %s}}}\n",
      run.args.workload.c_str(), static_cast<unsigned long long>(run.args.seed),
      s.sessions(), run.inputs.specs.size(), s.pass_ms.size(),
      Num(run.timed_ms / 1000.0).c_str(), Num(s.FastestPassMs() / 1000.0).c_str(),
      threads, Num(floor_before).c_str(), Num(floor_after).c_str(),
      steal0 < 0 || steal1 < 0 ? -1 : steal1 - steal0,
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      run.attempted, run.failed,
      TailJson("recommend_cold", s.All({kRecommend})).c_str(),
      TailJson("refine_resolve", s.All({kVeto, kUnveto, kCut})).c_str(),
      TailJson("refine_certified", s.All({kPin})).c_str(),
      TailJson("plan_deployment", s.All({kPlan})).c_str(),
      TailJson("append", s.All({kAppend})).c_str());
  std::vector<Metric> metrics =
      run.args.trace ? PerLayer(run, post) : EndToEnd(run, post);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", run.attempted, run.failed,
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
