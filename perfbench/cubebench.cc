// Closed-loop benchmark of the Cubetree configuration (see README.md).
//
//   cubebench --workload=<slice_hot|range_cold|refresh_online> --seed=<n>
//             --seconds=<s> --trace=<0|1> --dir=<scratch dir>
//             [--trace-out=<chrome trace json>]
//
// One run: set the warehouse up several times (setup_s is their median),
// replay a fixed-length counted prefix of the query stream from the cold
// pool after each set-up (deterministic I/O counters, repeated exactly or
// the run fails), measure the closed-loop query window, run the refresh
// schedule, and check a sample of every phase's answers against a
// brute-force GROUP BY over the facts applied so far. The last line of
// stdout is one JSON object; perfbench/run.py turns it into the result.
//
// --trace=1 measures the same phases but replays each window query layer by
// layer (CubetreeEngine::Execute, Cubetree::QueryBox, PackedRTree::Search)
// and splits refreshes into CubeBuilder::ComputeAll and the engine's
// ApplyDelta, recording a span around every call; it reports per-layer
// metrics only.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "engine/warehouse.h"
#include "obs/metrics.h"
#include "storage/page_manager.h"

namespace cubetree {
namespace perfbench {
namespace {

// Sizes behind every workload; README.md gives the resulting forest bytes.
constexpr double kScaleFactor = 0.05;
constexpr double kRangeFraction = 0.05;
constexpr size_t kHotPoolPages = 16384;
// The paper's memory ratio: 4096 pages (32 MB) at SF 1, scaled like
// WarehouseOptions::scale_memory_with_sf does.
const size_t kPaperPoolPages =
    std::max<size_t>(64, static_cast<size_t>(4096 * kScaleFactor));
const size_t kSortBudgetBytes =
    std::max<size_t>(256u << 10, static_cast<size_t>((16u << 20) * kScaleFactor));
constexpr const char* kRefreshWidth = "2";
constexpr int kSetups = 3;
constexpr size_t kCountedQueries = 1000;
constexpr int kRefreshes = 12;
// Correctness gate: every query of the counted prefix's first kGatePrefix,
// every kGateEvery-th window query (at most kGateMaxSamples), and
// kGateRefreshQueries fixed queries after each refresh.
constexpr size_t kGatePrefix = 32;
constexpr uint64_t kGateEvery = 64;
constexpr size_t kGateMaxSamples = 256;
constexpr size_t kGateRefreshQueries = 24;
constexpr size_t kMaxSpansPerLog = 200000;

struct Workload {
  const char* name;
  bool range_queries;  // ForNodeRange bands instead of the Fig. 12 slice mix.
  bool hot_pool;       // Pool holds the whole forest and is warmed.
  int readers;         // Closed-loop clients in the query window.
  bool refresh_in_window;
};

constexpr Workload kWorkloads[] = {
    {"slice_hot", false, true, 1, false},
    {"range_cold", true, false, 1, false},
    {"refresh_online", false, false, 2, true},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string dir;
  std::string trace_out;
};

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "cubebench: %s\n", what.c_str());
  std::exit(1);
}

void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) Fatal(std::string(what) + ": " + status.ToString());
}

template <typename T>
T CheckOk(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = a.substr(2, eq - 2);
    const std::string value = a.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args->workload = &w;
      }
      if (args->workload == nullptr) return false;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
      have_seed = true;
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "dir") {
      args->dir = value;
    } else if (key == "trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return args->workload != nullptr && have_seed && args->seconds > 0 &&
         !args->dir.empty();
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Stream ids of MixSeed: client c draws from stream c, the gate's refresh
// queries and the increment order from their own streams.
constexpr uint64_t kGateStream = 100;
constexpr uint64_t kIncrementStream = 101;

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(p / 100.0 * (values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 50); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Window summaries are medians over pieces of the window, so a burst of
// interference from outside the process moves them less than a pooled
// figure: throughput over kSlices equal time slices, latency percentiles
// over each client's consecutive chunks of kChunkQueries queries (ten
// samples beyond p99; a client with no full chunk contributes its partial
// one). Kept in fixed memory per client, so the benchmark's own footprint
// does not grow with the number of queries answered (peak_rss_mb).
// With refreshes inside the window most chunks miss every refresh, so the
// chunk median would hide refresh stalls; there every latency is kept
// (4 bytes a query) and the percentiles are taken over the whole window.
constexpr int kSlices = 10;
constexpr size_t kChunkQueries = 1000;

class WindowRecorder {
 public:
  WindowRecorder() { chunk_.reserve(kChunkQueries); }

  // A query that ended `end_ns` after the window started and took `us`.
  void Record(int64_t end_ns, int64_t window_ns, double us) {
    ++queries_;
    const int64_t slice = end_ns * kSlices / window_ns;
    if (slice >= 0 && slice < kSlices) ++slices_[slice];
    if (keep_all_) all_.push_back(static_cast<float>(us));
    chunk_.push_back(us);
    if (chunk_.size() == kChunkQueries) CloseChunk();
  }

  void set_keep_all(bool keep_all) { keep_all_ = keep_all; }
  const std::vector<float>& all() const { return all_; }

  void Finish() {
    if (p50s_.empty() && !chunk_.empty()) CloseChunk();
  }

  uint64_t queries() const { return queries_; }
  const std::vector<double>& p50s() const { return p50s_; }
  const std::vector<double>& p99s() const { return p99s_; }
  uint64_t slice(int i) const { return slices_[i]; }

 private:
  void CloseChunk() {
    p50s_.push_back(Percentile(chunk_, 50));
    p99s_.push_back(Percentile(chunk_, 99));
    chunk_.clear();
  }

  bool keep_all_ = false;
  uint64_t queries_ = 0;
  uint64_t slices_[kSlices] = {};
  std::vector<float> all_;
  std::vector<double> chunk_;
  std::vector<double> p50s_;
  std::vector<double> p99s_;
};

// ---------------------------------------------------------------------------
// Spans: recorded from this file around each call into a layer, kept in
// memory per thread and written as Chrome trace-event JSON at the end.

using Clock = std::chrono::steady_clock;
const Clock::time_point kOrigin = Clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kOrigin)
      .count();
}

struct SpanRecord {
  const char* name;
  uint64_t trace;
  int64_t start_ns;
  int64_t end_ns;
};

class SpanLog {
 public:
  // Runs `f`, records a span named `name` under request `trace`, and
  // returns its duration in microseconds.
  template <typename F>
  double Time(const char* name, uint64_t trace, F&& f) {
    const int64_t start = NowNs();
    f();
    const int64_t end = NowNs();
    if (record_ && spans_.size() < kMaxSpansPerLog) {
      spans_.push_back({name, trace, start, end});
    }
    return static_cast<double>(end - start) / 1000.0;
  }
  // Untraced runs only time their calls.
  void set_record(bool record) { record_ = record; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool record_ = true;
  std::vector<SpanRecord> spans_;
};

void WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Fatal("cannot write " + path);
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (size_t tid = 0; tid < logs.size(); ++tid) {
    for (const SpanRecord& s : logs[tid]->spans()) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace\":%" PRIu64
                   "}}",
                   first ? "" : ",\n", s.name, tid, s.start_ns / 1000.0,
                   (s.end_ns - s.start_ns) / 1000.0, s.trace);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Brute-force reference: every fact applied, in application order, so the
// state after k refreshes is a prefix of `facts`.

struct Fact {
  Coord key[3];
  int64_t measure;
};

void AppendFacts(FactProvider* provider, std::vector<Fact>* out) {
  auto source = CheckOk(provider->Open(), "open facts");
  const FactTuple* tuple = nullptr;
  while (true) {
    CheckOk(source->Next(&tuple), "read facts");
    if (tuple == nullptr) break;
    out->push_back({{tuple->attr_values[0], tuple->attr_values[1],
                     tuple->attr_values[2]},
                    tuple->measure});
  }
}

QueryResult BruteForce(const SliceQuery& q, const std::vector<Fact>& facts,
                       size_t num_facts) {
  QueryResult out;
  std::vector<std::pair<Coord, Coord>> intervals;
  for (size_t i = 0; i < q.attrs.size(); ++i) {
    intervals.push_back(q.AttrInterval(i));
    if (q.IsGrouped(i)) out.group_attrs.push_back(q.attrs[i]);
  }
  std::map<std::vector<Coord>, AggValue> groups;
  std::vector<Coord> key;
  for (size_t f = 0; f < num_facts; ++f) {
    const Fact& fact = facts[f];
    bool match = true;
    key.clear();
    for (size_t i = 0; i < q.attrs.size() && match; ++i) {
      const Coord v = fact.key[q.attrs[i]];
      match = v >= intervals[i].first && v <= intervals[i].second;
      if (q.IsGrouped(i)) key.push_back(v);
    }
    if (match) groups[key].Merge(AggValue{fact.measure, 1});
  }
  for (auto& [group, agg] : groups) out.rows.push_back(ResultRow{group, agg});
  return out;
}

// Order-independent digest of an answer, so sampled answers are kept in a
// few bytes (large range answers would otherwise dominate peak RSS) and
// need no sort: a sum of per-row hashes plus the row count.
struct AnswerDigest {
  std::vector<uint32_t> group_attrs;
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const AnswerDigest&) const = default;
};

AnswerDigest Digest(const QueryResult& result) {
  AnswerDigest d;
  d.group_attrs = result.group_attrs;
  d.rows = result.rows.size();
  for (const ResultRow& row : result.rows) {
    uint64_t h = MixSeed(static_cast<uint64_t>(row.agg.sum), row.agg.count);
    for (Coord c : row.group) h = MixSeed(h, c);
    d.hash += h;
  }
  return d;
}

// A sampled answer, with the number of refreshes whose facts it must
// reflect.
struct GateSample {
  SliceQuery query;
  AnswerDigest answer;
  int state;
};

// ---------------------------------------------------------------------------

class QueryStream {
 public:
  QueryStream(const Warehouse& wh, bool range, uint64_t seed)
      : lattice_(&wh.lattice()),
        gen_(wh.MakeQueryGenerator(seed)),
        pick_(seed ^ 0x5DEECE66DULL),
        range_(range) {
    for (size_t i = 0; i < lattice_->num_nodes(); ++i) {
      if (!lattice_->node(i).attrs.empty()) nodes_.push_back(i);
    }
  }

  SliceQuery Next() {
    if (!range_) {
      return gen_.UniformOverLattice(*lattice_, /*exclude_unbound=*/true,
                                     /*skip_none_node=*/true);
    }
    const size_t node = nodes_[pick_.Uniform(nodes_.size())];
    return gen_.ForNodeRange(lattice_->node(node).attrs, kRangeFraction,
                             /*exclude_unbound=*/true);
  }

 private:
  const CubeLattice* lattice_;
  SliceQueryGenerator gen_;
  Rng pick_;
  bool range_;
  std::vector<size_t> nodes_;
};

const ViewDef* ViewFromPlan(CubetreeEngine* engine, const CubeSchema& schema,
                            const std::string& plan) {
  const size_t space = plan.rfind(' ');
  const std::string name = plan.substr(space + 1);
  for (const ViewDef& view : engine->forest()->views()) {
    if (view.Name(schema) == name) return &view;
  }
  Fatal("plan names no view: " + plan);
}

// The routed view's box, in its projection order (as the engine builds it).
std::vector<std::pair<Coord, Coord>> ViewIntervals(const ViewDef& view,
                                                   const SliceQuery& q) {
  std::vector<std::pair<Coord, Coord>> intervals(view.arity(),
                                                 {1, kCoordMax});
  for (size_t qi = 0; qi < q.attrs.size(); ++qi) {
    for (size_t vi = 0; vi < view.attrs.size(); ++vi) {
      if (view.attrs[vi] == q.attrs[qi]) intervals[vi] = q.AttrInterval(qi);
    }
  }
  return intervals;
}

// ---------------------------------------------------------------------------
// Per-layer accounting of the traced run.

struct LayerTotals {
  uint64_t queries = 0;
  double execute_us = 0;      // The workload's own Execute (the op).
  double execute_hot_us = 0;  // Same query again, pages now cached.
  double query_box_us = 0;
  double search_us = 0;
  double op_us = 0;           // Whole traced op including the replays.
  uint64_t superset_routes = 0;
  uint64_t delta_trees = 0;
  uint64_t engine_points_examined = 0;
  uint64_t rows = 0;
  SearchStats search;

  void Add(const LayerTotals& o) {
    queries += o.queries;
    execute_us += o.execute_us;
    execute_hot_us += o.execute_hot_us;
    query_box_us += o.query_box_us;
    search_us += o.search_us;
    op_us += o.op_us;
    superset_routes += o.superset_routes;
    delta_trees += o.delta_trees;
    engine_points_examined += o.engine_points_examined;
    rows += o.rows;
    search.internal_pages += o.search.internal_pages;
    search.leaf_pages += o.search.leaf_pages;
    search.points_examined += o.search.points_examined;
    search.points_emitted += o.search.points_emitted;
  }
};

// Searches the routed view's tree (main + pending deltas) on the query's
// box; returns the summed Search time in microseconds.
double SearchRouted(Cubetree* tree, const ViewDef& view,
                    const std::vector<std::pair<Coord, Coord>>& intervals,
                    SpanLog* log, uint64_t trace, SearchStats* stats) {
  const Rect rect = CheckOk(tree->BoxRect(view.id, intervals), "box rect");
  const auto ignore = [](const PointRecord&) {};
  double us = log->Time("rtree.search", trace, [&] {
    CheckOk(tree->rtree()->Search(rect, ignore, stats), "search");
  });
  for (size_t d = 0; d < tree->num_deltas(); ++d) {
    us += log->Time("rtree.search_delta", trace, [&] {
      CheckOk(tree->delta(d)->Search(rect, ignore, stats), "delta search");
    });
  }
  return us;
}

// Replays one answered query layer by layer, hot: Execute again, then
// QueryBox and Search on the routed view's box.
void ProbeLayers(CubetreeEngine* engine, const CubeSchema& schema,
                 const SliceQuery& q, const QueryExecStats& stats,
                 size_t rows, SpanLog* log, uint64_t trace,
                 LayerTotals* totals) {
  const ViewDef& view = *ViewFromPlan(engine, schema, stats.plan);
  totals->execute_hot_us += log->Time("engine.execute_hot", trace, [&] {
    CheckOk(engine->Execute(q, nullptr).status(), "execute replay");
  });
  ForestSnapshot snapshot = engine->forest()->AcquireSnapshot();
  Cubetree* tree = CheckOk(snapshot.TreeForView(view.id), "routed tree");
  const auto intervals = ViewIntervals(view, q);
  totals->query_box_us += log->Time("cubetree.query_box", trace, [&] {
    CheckOk(tree->QueryBox(view.id, intervals,
                           [](const Coord*, const AggValue&) {}),
            "query box");
  });
  totals->search_us +=
      SearchRouted(tree, view, intervals, log, trace, &totals->search);
  totals->queries += 1;
  totals->superset_routes += view.AttrMask() != q.node_mask;
  totals->delta_trees += tree->num_deltas();
  totals->engine_points_examined += stats.tuples_accessed;
  totals->rows += rows;
}

// ---------------------------------------------------------------------------
// Set-up and the counted prefix.

struct Counted {
  IoStats io;
  uint64_t failed = 0;
  uint64_t rows = 0;
  uint64_t pages_accessed = 0;
  std::vector<SliceQuery> queries;
  std::vector<std::string> plans;
  std::vector<AnswerDigest> gate_answers;  // First kGatePrefix answers.

  bool SameCounters(const Counted& o) const {
    return io.sequential_reads == o.io.sequential_reads &&
           io.random_reads == o.io.random_reads && failed == o.failed &&
           rows == o.rows && pages_accessed == o.pages_accessed &&
           plans == o.plans;
  }
};

struct Setup {
  std::unique_ptr<Warehouse> wh;
  double create_s = 0;
  double setup_s = 0;  // Create + LoadCubetrees + pool warm-up.
  uint64_t storage_bytes = 0;
  Counted counted;
};

WarehouseOptions MakeOptions(const Workload& w, const std::string& dir) {
  WarehouseOptions options;
  options.scale_factor = kScaleFactor;
  options.dir = dir;
  options.scale_memory_with_sf = false;
  options.buffer_pool_pages = w.hot_pool ? kHotPoolPages : kPaperPoolPages;
  options.sort_budget_bytes = kSortBudgetBytes;
  return options;
}

// Reads every page a search can reach into the pool: one open box per view.
void FillPool(CubetreeEngine* engine) {
  ForestSnapshot snapshot = engine->forest()->AcquireSnapshot();
  for (const ViewDef& view : engine->forest()->views()) {
    Cubetree* tree = CheckOk(snapshot.TreeForView(view.id), "fill tree");
    std::vector<std::pair<Coord, Coord>> open(view.arity(), {1, kCoordMax});
    CheckOk(tree->QueryBox(view.id, open, [](const Coord*, const AggValue&) {}),
            "fill");
  }
}

Counted RunCounted(Warehouse* wh, const Workload& w, uint64_t seed) {
  Counted counted;
  QueryStream stream(*wh, w.range_queries, MixSeed(seed, 0));
  CubetreeEngine* engine = wh->cubetrees();
  const IoStats before = *wh->cubetree_io();
  for (size_t i = 0; i < kCountedQueries; ++i) {
    SliceQuery q = stream.Next();
    QueryExecStats stats;
    auto result = engine->Execute(q, &stats);
    counted.queries.push_back(q);
    counted.plans.push_back(stats.plan);
    if (!result.ok()) {
      ++counted.failed;
      continue;
    }
    counted.rows += result->rows.size();
    counted.pages_accessed += stats.pages_accessed;
    if (i < kGatePrefix) counted.gate_answers.push_back(Digest(*result));
  }
  counted.io = *wh->cubetree_io() - before;
  return counted;
}

Setup RunSetup(const Workload& w, const std::string& dir, uint64_t seed) {
  Setup s;
  std::filesystem::remove_all(dir);
  Timer timer;
  s.wh = CheckOk(Warehouse::Create(MakeOptions(w, dir)), "warehouse");
  s.create_s = timer.ElapsedSeconds();
  CheckOk(s.wh->LoadCubetrees().status(), "load cubetrees");
  s.setup_s = timer.ElapsedSeconds();
  s.storage_bytes = s.wh->cubetrees()->StorageBytes();
  s.counted = RunCounted(s.wh.get(), w, seed);
  if (w.hot_pool) {
    timer.Reset();
    FillPool(s.wh->cubetrees());
    s.setup_s += timer.ElapsedSeconds();
  }
  return s;
}

// ---------------------------------------------------------------------------
// Refreshes.

struct RefreshTotals {
  uint64_t base_bytes = 0;  // Forest bytes after set-up.
  std::vector<double> full_s;
  // Full refreshes rewrite the whole forest, which grows by an increment
  // per refresh; scaled to the set-up forest, the samples of one run are
  // comparable.
  std::vector<double> full_scaled_s;
  std::vector<double> delta_s;
  uint64_t failed = 0;
  // Traced split.
  double compute_delta_s = 0;
  std::vector<double> apply_full_s;
  std::vector<double> apply_delta_s;
  uint64_t refresh_write_bytes = 0;
  uint64_t delta_input_bytes = 0;
  uint64_t sort_input_bytes = 0;
  uint64_t runs_spilled = 0;
  uint64_t merge_passes = 0;
  uint64_t bytes_spilled = 0;
};

struct SorterCounters {
  uint64_t runs, passes, bytes;
  static SorterCounters Read() {
    auto& reg = obs::MetricsRegistry::Instance();
    return {reg.GetCounter("sorter.runs_spilled")->value(),
            reg.GetCounter("sorter.merge_passes")->value(),
            reg.GetCounter("sorter.bytes_spilled")->value()};
  }
};

// One refresh of increment `inc`. Untraced: the warehouse's own refresh
// (what refresh_s / delta_refresh_s time). Traced: the same two steps
// driven from here so the sort and the merge-pack are timed apart.
void Refresh(Warehouse* wh, bool full, uint32_t inc, bool traced,
             SpanLog* log, RefreshTotals* totals) {
  Status status;
  if (!traced) {
    Timer timer;
    auto report = full ? wh->UpdateCubetrees(inc)
                       : wh->UpdateCubetreesPartial(inc);
    status = report.status();
    const double seconds = timer.ElapsedSeconds();
    (full ? totals->full_s : totals->delta_s).push_back(seconds);
    if (full) {
      totals->full_scaled_s.push_back(
          seconds * totals->base_bytes / wh->cubetrees()->StorageBytes());
    }
  } else {
    const WarehouseOptions& options = wh->options();
    CubeBuilder::Options builder_options;
    builder_options.temp_dir = options.dir;
    builder_options.sort_budget_bytes = options.sort_budget_bytes;
    builder_options.io_stats = wh->cubetree_io();
    CubeBuilder builder(wh->schema(), builder_options);
    auto facts = wh->generator().IncrementFacts(options.increment_fraction, inc);
    totals->sort_input_bytes +=
        wh->generator().NumIncrementLineitems(options.increment_fraction, inc) *
        ViewRecordBytes(3);
    const SorterCounters sort_before = SorterCounters::Read();
    std::optional<Result<std::unique_ptr<ComputedViews>>> delta;
    totals->compute_delta_s +=
        log->Time("sort.compute_delta", inc, [&] {
          delta.emplace(builder.ComputeAll(wh->cubetree_views(), facts.get(),
                                           "pb_inc" + std::to_string(inc)));
        }) / 1e6;
    const SorterCounters sort_after = SorterCounters::Read();
    totals->runs_spilled += sort_after.runs - sort_before.runs;
    totals->merge_passes += sort_after.passes - sort_before.passes;
    totals->bytes_spilled += sort_after.bytes - sort_before.bytes;
    status = delta->status();
    if (status.ok()) {
      ComputedViews* views = delta->value().get();
      totals->delta_input_bytes += views->EstimatedInputBytes();
      const IoStats io_before = *wh->cubetree_io();
      CubetreeEngine* engine = wh->cubetrees();
      const double apply_s =
          log->Time(full ? "cubetree.apply_delta" : "cubetree.apply_delta_partial",
                    inc, [&] {
                      status = full ? engine->ApplyDelta(views)
                                    : engine->ApplyDeltaPartial(views);
                    }) / 1e6;
      (full ? totals->apply_full_s : totals->apply_delta_s).push_back(apply_s);
      totals->refresh_write_bytes +=
          (*wh->cubetree_io() - io_before).TotalWrites() * kPageSize;
      if (Status destroyed = views->Destroy(); status.ok()) status = destroyed;
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "refresh %u failed: %s\n", inc,
                 status.ToString().c_str());
    ++totals->failed;
  }
}

// ---------------------------------------------------------------------------
// The run.

struct ClientResult {
  WindowRecorder window;
  uint64_t failed = 0;
  BufferPoolStats pool;  // Single-client windows: the ops' own pool traffic.
  std::vector<GateSample> samples;
  uint64_t unchecked_samples = 0;  // Overlapped a refresh publish.
  LayerTotals layers;
  SpanLog spans;
};

// Refresh progress the readers consult to know which state a sampled
// answer must match: a sample is checkable only when no refresh was in
// flight for the whole query.
struct RefreshClock {
  std::atomic<int> started{0};
  std::atomic<int> done{0};
};

BufferPoolStats PoolDelta(const BufferPoolStats& after,
                          const BufferPoolStats& before) {
  BufferPoolStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.evictions = after.evictions - before.evictions;
  d.dirty_writebacks = after.dirty_writebacks - before.dirty_writebacks;
  return d;
}

// Latency of window queries that overlapped a refresh, and of the rest
// (ns; shared by the clients, recording is thread-safe).
struct OnlineLatency {
  obs::Histogram during;
  obs::Histogram idle;
};

void RunClient(Warehouse* wh, QueryStream* stream, bool single_client,
               bool traced, uint64_t client, int64_t window_start,
               int64_t window_ns, const RefreshClock* clock,
               OnlineLatency* online, ClientResult* out) {
  CubetreeEngine* engine = wh->cubetrees();
  BufferPool* pool = wh->cubetree_pool();
  uint64_t n = 0;
  while (NowNs() < window_start + window_ns) {
    const SliceQuery q = stream->Next();
    const uint64_t trace = (client << 40) | n;
    const int started = clock->started.load();
    const int done = clock->done.load();
    QueryExecStats stats;
    std::optional<Result<QueryResult>> result;
    const BufferPoolStats pool_before =
        single_client ? pool->stats() : BufferPoolStats{};
    const int64_t op_start = NowNs();
    const double us = out->spans.Time("engine.execute", trace, [&] {
      result.emplace(engine->Execute(q, traced ? &stats : nullptr));
    });
    if (single_client) {
      const BufferPoolStats d = PoolDelta(pool->stats(), pool_before);
      out->pool.hits += d.hits;
      out->pool.misses += d.misses;
      out->pool.evictions += d.evictions;
    }
    out->window.Record(NowNs() - window_start, window_ns, us);
    // Answered against one known state: no refresh in flight at any point.
    const bool stable = clock->started.load() == started &&
                        clock->done.load() == done && started == done;
    (stable ? online->idle : online->during)
        .Record(static_cast<uint64_t>(us * 1000));
    if (!result->ok()) {
      ++out->failed;
      std::fprintf(stderr, "query failed: %s\n",
                   result->status().ToString().c_str());
    } else {
      if (traced) {
        ProbeLayers(engine, wh->schema(), q, stats, (*result)->rows.size(),
                    &out->spans, trace, &out->layers);
        out->layers.execute_us += us;
        out->layers.op_us += static_cast<double>(NowNs() - op_start) / 1000.0;
      }
      if (n % kGateEvery == 0 && out->samples.size() < kGateMaxSamples) {
        if (stable) {
          out->samples.push_back({q, Digest(**result), done});
        } else {
          ++out->unchecked_samples;
        }
      }
    }
    ++n;
  }
  out->window.Finish();
}

// Built after every timed phase and after peak RSS is read, so neither
// pays for the fact list (up to 660k facts, 16 MB).
struct Gate {
  std::vector<Fact> facts;
  std::vector<size_t> state_sizes;  // Facts through k refreshes.
  uint64_t checked = 0;
  uint64_t mismatches = 0;

  void Check(const GateSample& s) {
    ++checked;
    if (!(s.answer == Digest(BruteForce(s.query, facts, state_sizes[s.state])))) {
      ++mismatches;
      std::fprintf(stderr, "gate: wrong answer (state %d)\n", s.state);
    }
  }
};

// Runs the gate's fixed queries against the newly published state, the
// one after `state` refreshes, and keeps their answers for the gate.
uint64_t SampleAfterRefresh(Warehouse* wh, const Workload& w, uint64_t seed,
                            int state, std::vector<GateSample>* samples) {
  QueryStream stream(*wh, w.range_queries, MixSeed(seed, kGateStream));
  uint64_t failed = 0;
  for (size_t i = 0; i < kGateRefreshQueries; ++i) {
    const SliceQuery q = stream.Next();
    auto result = wh->cubetrees()->Execute(q, nullptr);
    if (!result.ok()) {
      ++failed;
      continue;
    }
    samples->push_back({q, Digest(*result), state});
  }
  return failed;
}

struct Json {
  std::string text = "{";
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Raw(const std::string& key, const std::string& value) {
    if (text.size() > 1) text += ",";
    text += "\"" + key + "\":" + value;
  }
  std::string Close() const { return text + "}"; }
};

std::string Metric(double value, const char* unit) {
  Json j;
  j.Num("value", value);
  j.Raw("unit", std::string("\"") + unit + "\"");
  return j.Close();
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

// Times CubeBuilder::ComputeAll over the base facts and the Cubetree pack
// apart, in a private directory and pool (traced run only).
void TimeLoadLayers(Warehouse* wh, const std::string& dir, SpanLog* log,
                    double* compute_s, double* pack_points_per_s) {
  std::filesystem::create_directories(dir);
  CubeBuilder::Options builder_options;
  builder_options.temp_dir = dir;
  builder_options.sort_budget_bytes = wh->options().sort_budget_bytes;
  CubeBuilder builder(wh->schema(), builder_options);
  auto facts = wh->generator().BaseFacts();
  std::unique_ptr<ComputedViews> data;
  *compute_s = log->Time("olap.compute_views", 0, [&] {
                 data = CheckOk(builder.ComputeAll(wh->cubetree_views(),
                                                   facts.get(), "pb_base"),
                                "compute views");
               }) / 1e6;
  BufferPool pool(wh->options().buffer_pool_pages);
  CubetreeEngine::Options engine_options;
  engine_options.dir = dir;
  engine_options.name = "pack";
  auto engine = CheckOk(
      CubetreeEngine::Create(wh->schema(), engine_options, &pool), "engine");
  const double pack_s = log->Time("cubetree.load", 0, [&] {
                          CheckOk(engine->Load(wh->cubetree_views(), data.get()),
                                  "pack");
                        }) / 1e6;
  *pack_points_per_s = Ratio(engine->forest()->TotalPoints(), pack_s);
  CheckOk(data->Destroy(), "destroy spools");
  engine.reset();
  std::filesystem::remove_all(dir);
}

// PageManager::ReadPage (+ CRC-32C verify) over every live tree page
// through private page managers, as the scrubber reads.
double ReadVerifyUsPerPage(CubetreeEngine* engine, SpanLog* log) {
  uint64_t pages = 0;
  double us = 0;
  for (const std::string& path : engine->forest()->LiveFiles()) {
    auto file = CheckOk(PageManager::Open(path), "open tree file");
    CheckOk(file->LoadChecksums(), "load checksums");
    Page page;
    us += log->Time("storage.read_verify", 0, [&] {
      for (PageId id = 0; id < file->NumPages(); ++id) {
        CheckOk(file->ReadPage(id, &page), "read page");
      }
    });
    pages += file->NumPages();
  }
  return Ratio(us, static_cast<double>(pages));
}

int Run(const Args& args) {
  const Workload& w = *args.workload;
  ::setenv("CUBETREE_REFRESH_THREADS", kRefreshWidth, 1);
  std::filesystem::create_directories(args.dir);
  SpanLog setup_log;

  // Set-up, repeated; the counted prefix after each must repeat exactly.
  std::vector<double> setup_s, create_s;
  Setup setup;
  bool deterministic = true;
  std::optional<Counted> first_counted;
  for (int i = 0; i < kSetups; ++i) {
    setup.wh.reset();
    setup = RunSetup(w, args.dir + "/wh", args.seed);
    setup_s.push_back(setup.setup_s);
    create_s.push_back(setup.create_s);
    if (!first_counted) {
      first_counted = setup.counted;
    } else if (!first_counted->SameCounters(setup.counted)) {
      deterministic = false;
      std::fprintf(stderr,
                   "NONDETERMINISM: counted prefix differs between set-ups "
                   "%d and 0\n", i);
    }
  }
  Warehouse* wh = setup.wh.get();
  CubetreeEngine* engine = wh->cubetrees();
  const Counted& counted = setup.counted;

  // Answers the gate checks at the end: the counted prefix's first ones
  // here, those after each refresh as they are published.
  std::vector<GateSample> gate_samples;
  for (size_t i = 0; i < counted.gate_answers.size(); ++i) {
    gate_samples.push_back({counted.queries[i], counted.gate_answers[i], 0});
  }

  // Traced run: the deterministic structural counters of the counted prefix
  // (SearchStats does not depend on the pool), then the load split.
  LayerTotals counted_layers;
  double compute_views_s = 0, pack_points_per_s = 0;
  if (args.trace) {
    for (size_t i = 0; i < counted.queries.size(); ++i) {
      if (counted.plans[i].empty()) continue;
      const SliceQuery& q = counted.queries[i];
      const ViewDef& view = *ViewFromPlan(engine, wh->schema(), counted.plans[i]);
      ForestSnapshot snapshot = engine->forest()->AcquireSnapshot();
      Cubetree* tree = CheckOk(snapshot.TreeForView(view.id), "routed tree");
      SearchRouted(tree, view, ViewIntervals(view, q), &setup_log, i,
                   &counted_layers.search);
    }
    TimeLoadLayers(wh, args.dir + "/pack", &setup_log, &compute_views_s,
                   &pack_points_per_s);
  }

  // Increment order for this seed: a permutation of the first kRefreshes.
  std::vector<uint32_t> increments(kRefreshes);
  for (int i = 0; i < kRefreshes; ++i) increments[i] = i;
  Rng order_rng(MixSeed(args.seed, kIncrementStream));
  for (int i = kRefreshes - 1; i > 0; --i) {
    std::swap(increments[i], increments[order_rng.Uniform(i + 1)]);
  }

  RefreshTotals refresh;
  refresh.base_bytes = setup.storage_bytes;
  RefreshClock clock;
  uint64_t gate_failed = 0;
  SpanLog refresh_log;
  auto refresh_one = [&](int i) {
    clock.started.fetch_add(1);
    Refresh(wh, /*full=*/i % 2 == 1, increments[i], args.trace, &refresh_log,
            &refresh);
    clock.done.fetch_add(1);
    gate_failed += SampleAfterRefresh(wh, w, args.seed, i + 1, &gate_samples);
  };

  // The query window (with the refresh schedule spread across it on
  // refresh_online: refresh i starts at the middle of slot i).
  const BufferPoolStats pool_before = wh->cubetree_pool()->stats();
  const int64_t window_start = NowNs();
  const int64_t window_ns = static_cast<int64_t>(args.seconds * 1e9);
  std::vector<std::unique_ptr<ClientResult>> clients;
  std::vector<QueryStream> streams;
  std::vector<std::thread> threads;
  for (int c = 0; c < w.readers; ++c) {
    clients.push_back(std::make_unique<ClientResult>());
    clients.back()->spans.set_record(args.trace);
    clients.back()->window.set_keep_all(w.refresh_in_window);
    streams.emplace_back(*wh, w.range_queries, MixSeed(args.seed, c));
  }
  // Client 0 continues the counted prefix's stream.
  for (size_t i = 0; i < kCountedQueries; ++i) (void)streams[0].Next();
  OnlineLatency online;
  std::thread refresher;
  if (w.refresh_in_window) {
    refresher = std::thread([&] {
      for (int i = 0; i < kRefreshes; ++i) {
        const int64_t due = window_start + window_ns * (2 * i + 1) / (2 * kRefreshes);
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::max<int64_t>(0, due - NowNs())));
        refresh_one(i);
      }
    });
  }
  for (int c = 0; c < w.readers; ++c) {
    threads.emplace_back(RunClient, wh, &streams[c], w.readers == 1,
                         args.trace, static_cast<uint64_t>(c), window_start,
                         window_ns, &clock, &online, clients[c].get());
  }
  for (std::thread& t : threads) t.join();
  const double window_s = static_cast<double>(NowNs() - window_start) / 1e9;
  if (refresher.joinable()) refresher.join();
  BufferPoolStats pool_window = PoolDelta(wh->cubetree_pool()->stats(), pool_before);

  double read_verify_us = 0;
  if (args.trace) read_verify_us = ReadVerifyUsPerPage(engine, &setup_log);
  if (!w.refresh_in_window) {
    for (int i = 0; i < kRefreshes; ++i) refresh_one(i);
  }
  const uint64_t storage_bytes =
      w.refresh_in_window ? engine->StorageBytes() : setup.storage_bytes;
  const double peak_rss_mb = PeakRssMb();

  // Gate, outside every timed phase: the reference facts (streaming the
  // base facts also times the generator's share of the load), then every
  // sampled answer against the state it was answered on.
  Gate gate;
  const double generate_s =
      setup_log.Time("tpcd.base_facts", 0, [&] {
        AppendFacts(wh->generator().BaseFacts().get(), &gate.facts);
      }) / 1e6;
  gate.state_sizes.push_back(gate.facts.size());
  for (uint32_t inc : increments) {
    AppendFacts(wh->generator()
                    .IncrementFacts(wh->options().increment_fraction, inc)
                    .get(),
                &gate.facts);
    gate.state_sizes.push_back(gate.facts.size());
  }
  for (const GateSample& s : gate_samples) gate.Check(s);

  uint64_t window_queries = 0, query_failed = 0, unchecked = 0;
  std::vector<double> slice_qps(kSlices, 0), chunk_p50s, chunk_p99s, pooled_us;
  LayerTotals layers;
  BufferPoolStats client_pool;
  for (const auto& client : clients) {
    for (const GateSample& s : client->samples) gate.Check(s);
    const WindowRecorder& rec = client->window;
    for (int i = 0; i < kSlices; ++i) {
      slice_qps[i] += rec.slice(i) / (window_ns / 1e9 / kSlices);
    }
    chunk_p50s.insert(chunk_p50s.end(), rec.p50s().begin(), rec.p50s().end());
    chunk_p99s.insert(chunk_p99s.end(), rec.p99s().begin(), rec.p99s().end());
    pooled_us.insert(pooled_us.end(), rec.all().begin(), rec.all().end());
    window_queries += rec.queries();
    query_failed += client->failed;
    unchecked += client->unchecked_samples;
    layers.Add(client->layers);
    client_pool.hits += client->pool.hits;
    client_pool.misses += client->pool.misses;
    client_pool.evictions += client->pool.evictions;
  }
  // Single client: exactly the ops' pool traffic. Concurrent readers: the
  // whole pool over the window (refresh traffic included).
  if (w.readers == 1) pool_window = client_pool;

  const uint64_t attempted = kCountedQueries + window_queries +
                             kRefreshes * (1 + kGateRefreshQueries);
  const uint64_t failed = counted.failed + query_failed + refresh.failed +
                          gate_failed + gate.mismatches;
  const bool correct = failed == 0 && deterministic && gate.checked > 0;

  const double n_counted = static_cast<double>(kCountedQueries);
  const double p50_us = w.refresh_in_window ? Percentile(pooled_us, 50)
                                            : Median(chunk_p50s);
  const double p99_us = w.refresh_in_window ? Percentile(pooled_us, 99)
                                            : Median(chunk_p99s);
  const double modeled_ms =
      wh->options().disk.ModeledSeconds(counted.io) * 1000.0 / n_counted;

  Json metrics;
  if (!args.trace) {
    metrics.Raw("setup_s", Metric(Median(setup_s), "s"));
    metrics.Raw("query_qps", Metric(Median(slice_qps), "1/s"));
    metrics.Raw("query_p50_us", Metric(p50_us, "us"));
    metrics.Raw("query_p99_us", Metric(p99_us, "us"));
    metrics.Raw("modeled_io_ms_per_query", Metric(modeled_ms, "ms"));
    metrics.Raw("storage_mb", Metric(storage_bytes / 1e6, "MB"));
    metrics.Raw("peak_rss_mb", Metric(peak_rss_mb, "MB"));
  } else {
    const double q = static_cast<double>(std::max<uint64_t>(layers.queries, 1));
    const double ops = static_cast<double>(std::max<uint64_t>(window_queries, 1));
    metrics.Raw("engine.self_us",
                Metric((layers.execute_hot_us - layers.query_box_us) / q, "us"));
    metrics.Raw("engine.superset_route_share",
                Metric(layers.superset_routes / q, "ratio"));
    metrics.Raw("engine.points_examined_per_row",
                Metric(Ratio(layers.engine_points_examined, layers.rows), "ratio"));
    metrics.Raw("cubetree.query_box_self_us",
                Metric((layers.query_box_us - layers.search_us) / q, "us"));
    metrics.Raw("cubetree.delta_trees_per_query",
                Metric(layers.delta_trees / q, "count"));
    metrics.Raw("cubetree.apply_delta_s", Metric(Median(refresh.apply_full_s), "s"));
    metrics.Raw("cubetree.apply_delta_partial_s",
                Metric(Median(refresh.apply_delta_s), "s"));
    metrics.Raw("cubetree.refresh_write_bytes_per_delta_byte",
                Metric(Ratio(refresh.refresh_write_bytes, refresh.delta_input_bytes),
                       "ratio"));
    metrics.Raw("rtree.search_us", Metric(layers.search_us / q, "us"));
    metrics.Raw("rtree.internal_pages_per_query",
                Metric(counted_layers.search.internal_pages / n_counted, "count"));
    metrics.Raw("rtree.leaf_pages_per_query",
                Metric(counted_layers.search.leaf_pages / n_counted, "count"));
    metrics.Raw("rtree.points_examined_per_emitted",
                Metric(Ratio(layers.search.points_examined,
                             layers.search.points_emitted),
                       "ratio"));
    metrics.Raw("rtree.pack_points_per_s", Metric(pack_points_per_s, "1/s"));
    metrics.Raw("storage.pool_hit_ratio", Metric(pool_window.HitRatio(), "ratio"));
    metrics.Raw("storage.pool_misses_per_query",
                Metric(pool_window.misses / ops, "count"));
    metrics.Raw("storage.evictions_per_query",
                Metric(pool_window.evictions / ops, "count"));
    metrics.Raw("storage.read_verify_us_per_page", Metric(read_verify_us, "us"));
    metrics.Raw("storage.physical_reads_per_query",
                Metric(counted.io.TotalReads() / n_counted, "count"));
    metrics.Raw("storage.sequential_reads_per_query",
                Metric(counted.io.sequential_reads / n_counted, "count"));
    metrics.Raw("storage.random_reads_per_query",
                Metric(counted.io.random_reads / n_counted, "count"));
    metrics.Raw("sort.compute_delta_s",
                Metric(refresh.compute_delta_s / kRefreshes, "s"));
    metrics.Raw("sort.runs_spilled",
                Metric(static_cast<double>(refresh.runs_spilled) / kRefreshes,
                       "count"));
    metrics.Raw("sort.bytes_spilled_per_input_byte",
                Metric(Ratio(refresh.bytes_spilled, refresh.sort_input_bytes),
                       "ratio"));
    metrics.Raw("sort.merge_passes",
                Metric(static_cast<double>(refresh.merge_passes) / kRefreshes,
                       "count"));
    metrics.Raw("olap.compute_views_s", Metric(compute_views_s, "s"));
    metrics.Raw("tpcd.create_s", Metric(Median(create_s) + generate_s, "s"));
    metrics.Raw("online.query_p99_during_refresh_us",
                Metric(online.during.ValueAtPercentile(99) / 1000.0, "us"));
    metrics.Raw("online.query_p99_idle_us",
                Metric(online.idle.ValueAtPercentile(99) / 1000.0, "us"));
    metrics.Raw("trace.overhead_ratio",
                Metric(Ratio(layers.op_us - layers.execute_us, layers.execute_us),
                       "ratio"));
  }

  // Human-readable context, then the machine line.
  std::printf("workload %s seed %" PRIu64 " trace %d: %" PRIu64
              " window queries over %.3f s by %d client(s) (%.1f q/s pooled); "
              "latency samples %" PRIu64 " (%s)\n",
              w.name, args.seed, args.trace ? 1 : 0, window_queries, window_s,
              w.readers, window_queries / window_s, window_queries,
              w.refresh_in_window
                  ? "percentiles over all of them"
                  : ("median over " + std::to_string(chunk_p50s.size()) +
                     " chunks of " + std::to_string(kChunkQueries))
                        .c_str());
  std::string full_list, delta_list;
  for (double t : refresh.full_s) full_list += " " + std::to_string(t);
  for (double t : refresh.delta_s) delta_list += " " + std::to_string(t);
  std::printf("refreshes (s): full%s; delta%s\n", full_list.c_str(),
              delta_list.c_str());
  // Printed, not in the result: refreshes fsync every file they write, and
  // on a shared disk some stall behind other tenants' I/O, so even these
  // lower quartiles spread more between runs than any allowed bound.
  std::printf("refresh_s %.6f s (lower quartile, scaled to the set-up "
              "forest); delta_refresh_s %.6f s (lower quartile)\n",
              Percentile(refresh.full_scaled_s, 25),
              Percentile(refresh.delta_s, 25));
  std::printf("failed_ops_ratio %.6g (%" PRIu64 " failed / %" PRIu64
              " attempted); gate checked %" PRIu64 " answers, %" PRIu64
              " mismatches, %" PRIu64 " skipped (overlapped a publish)\n",
              Ratio(failed, attempted), failed, attempted, gate.checked,
              gate.mismatches, unchecked);
  std::printf("forest %.1f MB after setup; pool %zu pages; counted prefix "
              "%zu queries: %" PRIu64 " seq + %" PRIu64 " random reads\n",
              setup.storage_bytes / 1e6, wh->options().buffer_pool_pages,
              kCountedQueries, static_cast<uint64_t>(counted.io.sequential_reads),
              static_cast<uint64_t>(counted.io.random_reads));

  if (args.trace && !args.trace_out.empty()) {
    std::vector<const SpanLog*> logs = {&setup_log, &refresh_log};
    for (const auto& client : clients) logs.push_back(&client->spans);
    WriteChromeTrace(args.trace_out, logs);
  }

  Json det;
  det.Num("counted_sequential_reads", static_cast<double>(counted.io.sequential_reads));
  det.Num("counted_random_reads", static_cast<double>(counted.io.random_reads));
  det.Num("counted_rows", static_cast<double>(counted.rows));
  det.Num("counted_pages_accessed", static_cast<double>(counted.pages_accessed));
  det.Num("setup_storage_bytes", static_cast<double>(setup.storage_bytes));
  if (!w.refresh_in_window) {
    det.Num("final_storage_bytes", static_cast<double>(engine->StorageBytes()));
  }
  if (args.trace) {
    det.Num("rtree_internal_pages", static_cast<double>(counted_layers.search.internal_pages));
    det.Num("rtree_leaf_pages", static_cast<double>(counted_layers.search.leaf_pages));
  }

  Json out;
  out.Raw("correct", correct ? "true" : "false");
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(failed));
  out.Raw("metrics", metrics.Close());
  out.Raw("deterministic", det.Close());
  std::printf("%s\n", out.Close().c_str());
  std::fflush(stdout);

  clients.clear();
  setup.wh.reset();
  std::filesystem::remove_all(args.dir);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace cubetree

int main(int argc, char** argv) {
  cubetree::perfbench::Args args;
  if (!cubetree::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: cubebench --workload=<slice_hot|range_cold|"
                 "refresh_online> --seed=<n> --seconds=<s> --trace=<0|1> "
                 "--dir=<scratch dir> [--trace-out=<file>]\n");
    return 64;
  }
  return cubetree::perfbench::Run(args);
}
