// Input generation: SDSS substrates and the per-workload session pools.
// Everything here derives from the run seed; the program under test
// only ever sees the generated databases and bound queries.

#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "sql/binder.h"
#include "util/rng.h"
#include "util/str.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace perfbench {

using dbdesign::BoundQuery;
using dbdesign::Rng;
using dbdesign::SdssTemplate;
using dbdesign::StrFormat;
using dbdesign::TemplateMix;

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

dbdesign::DesignerOptions BenchDesignerOptions() {
  return dbdesign::DesignerOptions{};
}

namespace {

/// Query structure (which SDSS templates a workload draws, which
/// columns, projections and joins an ad-hoc query has) is one fixed
/// application, drawn from this seed; the run seed draws the constants.
/// Structure is what sets the BIP's size and hardness, so fixing it
/// keeps every seed's session pool equally hard while the inputs still
/// change.
constexpr uint64_t kShapeSeed = 20100610;

/// The paper's demo substrates: three SDSS databases that differ in
/// data seed (so in histograms, MCVs and sizes).
constexpr uint64_t kSdssSeeds[] = {42, 43, 44};

struct BindTimer {
  double total_us = 0.0;
  size_t count = 0;

  BoundQuery Bind(const dbdesign::Catalog& catalog, const std::string& sql) {
    double t0 = NowMs();
    dbdesign::Result<BoundQuery> q = dbdesign::ParseAndBind(catalog, sql);
    total_us += (NowMs() - t0) * 1000.0;
    ++count;
    if (!q.ok()) {
      std::fprintf(stderr, "perfbench: generated query failed to bind: %s\n  %s\n",
                   q.status().ToString().c_str(), sql.c_str());
      std::exit(2);
    }
    return std::move(q).value();
  }
};

void BuildSchemas(Inputs* in) {
  double total_ms = 0.0;
  for (uint64_t s : kSdssSeeds) {
    Schema schema;
    schema.name = "sdss" + std::to_string(s);
    dbdesign::SdssConfig cfg;
    cfg.seed = s;
    double t0 = NowMs();
    schema.db = std::make_unique<dbdesign::Database>(
        dbdesign::BuildSdssDatabase(cfg));
    total_ms += NowMs() - t0;
    dbdesign::CostParams params;
    params.num_threads = 1;  // serial costing: steady, comparable timings
    schema.backend =
        std::make_unique<dbdesign::InMemoryBackend>(*schema.db, params);
    const dbdesign::Catalog& catalog = schema.db->catalog();
    for (TableId t = 0; t < catalog.num_tables(); ++t) {
      schema.data_pages += schema.db->stats(t).HeapPages(catalog.table(t));
    }
    schema.photoobj = catalog.FindTable(dbdesign::kPhotoObj);
    in->schemas.push_back(std::move(schema));
  }
  in->sdss_build_ms = total_ms / static_cast<double>(in->schemas.size());
}

SdssTemplate DrawTemplate(const TemplateMix& mix, Rng& rng) {
  double total = 0.0;
  for (double w : mix.weights) total += w;
  double x = rng.UniformDouble(0.0, total);
  for (int t = 0; t < dbdesign::kNumSdssTemplates; ++t) {
    x -= mix.weights[t];
    if (x < 0.0) return static_cast<SdssTemplate>(t);
  }
  return SdssTemplate::kPointLookup;
}

/// `n` queries of `mix`: `shape_seed` draws the sequence of templates,
/// `value_seed` their constants.
std::vector<BoundQuery> SdssQueries(const Schema& schema, const TemplateMix& mix,
                                    int n, uint64_t shape_seed,
                                    uint64_t value_seed, BindTimer* timer) {
  Rng shape(shape_seed);
  Rng values(value_seed);
  std::vector<BoundQuery> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string sql =
        dbdesign::GenerateSdssSql(DrawTemplate(mix, shape), values);
    out.push_back(timer->Bind(schema.db->catalog(), sql));
  }
  return out;
}

Workload ToWorkload(std::vector<BoundQuery> queries) {
  Workload w;
  for (BoundQuery& q : queries) w.Add(std::move(q));
  return w;
}

constexpr double kSdssBudgets[] = {0.05, 0.1, 0.2, 0.35, 0.5};

/// The step-8 delta: `same` queries of the session's mix (same-template
/// weight bumps) plus one query of a shape no SDSS template has, so
/// every append opens a template class, mines candidates and extends
/// the universe. A delta of weight bumps alone would sometimes keep the
/// optimality certificate (instant) and sometimes re-solve, and the
/// median of such a two-mode sample jumps between modes from seed to
/// seed.
std::vector<BoundQuery> SdssDelta(const Schema& schema, const TemplateMix& mix,
                                  int same, uint64_t shape_seed,
                                  uint64_t value_seed, BindTimer* timer) {
  std::vector<BoundQuery> out =
      SdssQueries(schema, mix, same, shape_seed, value_seed, timer);
  Rng rng(MixSeed(value_seed, 1));
  double score = rng.UniformDouble(0.0, 0.8);
  out.push_back(timer->Bind(
      schema.db->catalog(),
      StrFormat("SELECT objid, score, nchild FROM photoobj "
                "WHERE score BETWEEN %.4f AND %.4f AND nchild BETWEEN 0 AND %lld",
                score, score + rng.UniformDouble(0.02, 0.1),
                static_cast<long long>(rng.UniformInt(1, 3)))));
  return out;
}

// --- sdss-loop ---
//
// The demo loop over the ten SDSS templates: every cell of three
// substrates x OfflineDefault/Uniform mix x 64 or 128 queries x five
// budgets from 0.05 to 0.5 x data pages, twice. Small real BIPs (~45
// candidates, ~175 atoms). Session times spread over an order of
// magnitude, so the pool must be large for the run's figures to
// reflect the program rather than the seed's draw of constants.
constexpr int kSdssLoopSessions = 120;

void BuildSdssLoop(Inputs* in, BindTimer* timer) {
  in->pass_seconds = 8.5;
  for (int i = 0; i < kSdssLoopSessions; ++i) {
    SessionSpec spec;
    spec.id = StrFormat("loop%03d", i);
    spec.schema = i % 3;
    const Schema& schema = in->schemas[static_cast<size_t>(spec.schema)];
    TemplateMix mix = (i / 3) % 2 == 0 ? TemplateMix::OfflineDefault()
                                       : TemplateMix::Uniform();
    int n = (i / 6) % 2 == 0 ? 64 : 128;
    spec.workload = ToWorkload(SdssQueries(schema, mix, n,
                                           MixSeed(kShapeSeed, 4000 + 2 * i),
                                           MixSeed(in->seed, 2 * i), timer));
    spec.delta = SdssDelta(schema, mix, 7, MixSeed(kShapeSeed, 4001 + 2 * i),
                           MixSeed(in->seed, 2 * i + 1), timer);
    spec.budget_pages = kSdssBudgets[i % 5] * schema.data_pages;
    in->specs.push_back(std::move(spec));
  }
}

// --- adhoc-wide ---
//
// Ad-hoc range queries over random photoobj column pairs with random
// projections, plus some photoobj x specobj joins. Nearly every query
// is its own template class, so the BIPs have several hundred atoms and
// the solve dominates.
constexpr int kAdhocSessions = 48;
constexpr int kAdhocQueries = 40;
constexpr int kAdhocDelta = 4;
constexpr double kAdhocBudget = 0.05;

const char* const kPhotoCols[] = {
    "ra",       "dec",      "run",       "camcol",       "field",
    "type",     "psfmag_u", "psfmag_g",  "psfmag_r",     "psfmag_i",
    "psfmag_z", "petror50_r", "extinction_r", "rowc",    "colc",
    "score",    "mjd",      "nchild"};
constexpr int kNumPhotoCols = sizeof(kPhotoCols) / sizeof(kPhotoCols[0]);
const char* const kSpecCols[] = {"z", "zerr", "sn_median", "veldisp", "plate"};
constexpr int kNumSpecCols = sizeof(kSpecCols) / sizeof(kSpecCols[0]);

/// "lo AND hi" covering `frac` of the column's [min, max] range.
std::string RangeOf(const dbdesign::Database& db, TableId table,
                    const std::string& col, double frac, Rng& rng) {
  const dbdesign::TableDef& def = db.catalog().table(table);
  dbdesign::ColumnId c = def.FindColumn(col);
  const dbdesign::ColumnStats& st = db.stats(table).columns[c];
  double lo = st.min.AsDouble();
  double hi = st.max.AsDouble();
  double width = (hi - lo) * frac;
  double start = rng.UniformDouble(lo, std::max(lo, hi - width));
  if (def.column(c).type == dbdesign::DataType::kInt64) {
    auto a = static_cast<long long>(start);
    auto b = static_cast<long long>(start + std::max(1.0, width));
    return StrFormat("%lld AND %lld", a, b);
  }
  return StrFormat("%.4f AND %.4f", start, start + width);
}

/// One ad-hoc query. `shape` picks the structure (columns, projection,
/// join); `values` picks the constants.
std::string AdhocSql(const Schema& schema, Rng& shape, Rng& values) {
  const dbdesign::Database& db = *schema.db;
  std::vector<int> pick = shape.SampleWithoutReplacement(kNumPhotoCols, 2);
  std::string c1 = kPhotoCols[pick[0]];
  std::string c2 = kPhotoCols[pick[1]];
  int nproj = static_cast<int>(shape.UniformInt(1, 3));
  std::vector<int> proj = shape.SampleWithoutReplacement(kNumPhotoCols, nproj);
  if (shape.Bernoulli(0.2)) {
    TableId spec = db.catalog().FindTable(dbdesign::kSpecObj);
    std::string sc = kSpecCols[shape.UniformInt(0, kNumSpecCols - 1)];
    return StrFormat(
        "SELECT p.objid, p.%s, s.%s FROM photoobj p "
        "JOIN specobj s ON p.objid = s.bestobjid "
        "WHERE p.%s BETWEEN %s AND s.%s BETWEEN %s",
        kPhotoCols[proj[0]], sc.c_str(), c1.c_str(),
        RangeOf(db, schema.photoobj, c1, values.UniformDouble(0.005, 0.05),
                values)
            .c_str(),
        sc.c_str(),
        RangeOf(db, spec, sc, values.UniformDouble(0.02, 0.2), values).c_str());
  }
  std::string select = "objid";
  for (int p : proj) select += std::string(", ") + kPhotoCols[p];
  return StrFormat(
      "SELECT %s FROM photoobj WHERE %s BETWEEN %s AND %s BETWEEN %s",
      select.c_str(), c1.c_str(),
      RangeOf(db, schema.photoobj, c1, values.UniformDouble(0.01, 0.1), values)
          .c_str(),
      c2.c_str(),
      RangeOf(db, schema.photoobj, c2, values.UniformDouble(0.05, 0.3), values)
          .c_str());
}

std::vector<BoundQuery> AdhocQueries(const Schema& schema, int n,
                                     uint64_t shape_seed, uint64_t value_seed,
                                     BindTimer* timer) {
  Rng shape(shape_seed);
  Rng values(value_seed);
  std::vector<BoundQuery> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(
        timer->Bind(schema.db->catalog(), AdhocSql(schema, shape, values)));
  }
  return out;
}

void BuildAdhocWide(Inputs* in, BindTimer* timer) {
  in->pass_seconds = 6.5;
  for (int i = 0; i < kAdhocSessions; ++i) {
    SessionSpec spec;
    spec.id = StrFormat("adhoc%02d", i);
    spec.schema = i % 3;
    const Schema& schema = in->schemas[static_cast<size_t>(spec.schema)];
    spec.workload = ToWorkload(
        AdhocQueries(schema, kAdhocQueries, MixSeed(kShapeSeed, 2 * i),
                     MixSeed(in->seed, 1000 + 2 * i), timer));
    spec.delta =
        AdhocQueries(schema, kAdhocDelta, MixSeed(kShapeSeed, 2 * i + 1),
                     MixSeed(in->seed, 1001 + 2 * i), timer);
    spec.budget_pages = kAdhocBudget * schema.data_pages;
    in->specs.push_back(std::move(spec));
  }
}

// --- tenants ---
//
// A TuningServer over the three substrates. Half the tenants run one of
// their schema's shared application workloads (identical SQL text, so
// their atom rows come from the shared store); the other half run
// private workloads. The store's budget sits far below the unbounded
// footprint, so the LRU tier evicts.
constexpr int kTenants = 144;
constexpr int kAppsPerSchema = 6;
constexpr size_t kTenantAtomStoreBytes = 512 * 1024;

void BuildTenants(Inputs* in, BindTimer* timer) {
  in->pass_seconds = 6.5;
  const size_t schemas = in->schemas.size();
  std::vector<std::vector<BoundQuery>> app(schemas * kAppsPerSchema);
  std::vector<std::vector<BoundQuery>> app_delta(app.size());
  for (size_t a = 0; a < app.size(); ++a) {
    const Schema& schema = in->schemas[a % schemas];
    app[a] = SdssQueries(schema, TemplateMix::OfflineDefault(), 64,
                         MixSeed(kShapeSeed, 2000 + 2 * a),
                         MixSeed(in->seed, 2000 + 2 * a), timer);
    app_delta[a] = SdssDelta(schema, TemplateMix::OfflineDefault(), 7,
                             MixSeed(kShapeSeed, 2001 + 2 * a),
                             MixSeed(in->seed, 2001 + 2 * a), timer);
  }
  for (int i = 0; i < kTenants; ++i) {
    SessionSpec spec;
    spec.id = StrFormat("tenant%03d", i);
    spec.schema = i % 3;
    bool shared = (i / 3) % 2 == 0;
    const Schema& schema = in->schemas[static_cast<size_t>(spec.schema)];
    if (shared) {
      // Tenants i, i+6, i+12, ... of one schema cycle through its apps.
      size_t a = static_cast<size_t>(spec.schema) +
                 schemas * static_cast<size_t>((i / 6) % kAppsPerSchema);
      spec.workload = ToWorkload(app[a]);
      spec.delta = app_delta[a];
    } else {
      spec.workload = ToWorkload(
          SdssQueries(schema, TemplateMix::Uniform(), 64,
                      MixSeed(kShapeSeed, 3000 + 2 * i),
                      MixSeed(in->seed, 3000 + 2 * i), timer));
      spec.delta = SdssDelta(schema, TemplateMix::Uniform(), 7,
                             MixSeed(kShapeSeed, 3001 + 2 * i),
                             MixSeed(in->seed, 3001 + 2 * i), timer);
    }
    spec.budget_pages = kSdssBudgets[i % 5] * schema.data_pages;
    in->specs.push_back(std::move(spec));
  }
  in->atom_store_bytes = kTenantAtomStoreBytes;
}

}  // namespace

bool BuildInputs(const std::string& workload, uint64_t seed, Inputs* out) {
  if (workload != "sdss-loop" && workload != "adhoc-wide" &&
      workload != "tenants") {
    return false;
  }
  out->workload = workload;
  out->seed = seed;
  BuildSchemas(out);
  BindTimer timer;
  if (workload == "sdss-loop") BuildSdssLoop(out, &timer);
  if (workload == "adhoc-wide") BuildAdhocWide(out, &timer);
  if (workload == "tenants") BuildTenants(out, &timer);
  out->parse_bind_us =
      timer.count == 0 ? 0.0 : timer.total_us / static_cast<double>(timer.count);
  return true;
}

}  // namespace perfbench
