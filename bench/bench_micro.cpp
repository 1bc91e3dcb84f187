// Google-benchmark microbenchmarks of the core operations: packed R-tree
// bulk load (the paper reports a 6 GB/hour packing rate on 1997 hardware),
// range search, the per-arity leaf scan, merge-pack, B-tree
// insert/lookup/bulk-build and the external sorter.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "btree/btree.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "cubetree/merge_pack.h"
#include "engine/cubetree_engine.h"
#include "olap/cube_builder.h"
#include "rtree/packed_rtree.h"
#include "sort/external_sorter.h"
#include "storage/buffer_pool.h"
#include "storage/checksum.h"

namespace cubetree {
namespace {

const char* kDir = "ctbench_micro";

void MakeBenchDir(const char* dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "mkdir %s: %s\n", dir, ec.message().c_str());
    std::exit(1);
  }
}

std::vector<PointRecord> MakeSortedPoints(uint32_t n) {
  std::vector<PointRecord> points;
  points.reserve(n);
  Rng rng(11);
  for (uint32_t i = 0; i < n; ++i) {
    PointRecord rec;
    rec.view_id = 1;
    rec.coords[0] = 1 + static_cast<Coord>(rng.Uniform(1u << 20));
    rec.coords[1] = 1 + static_cast<Coord>(rng.Uniform(1u << 10));
    rec.coords[2] = static_cast<Coord>(i + 1);  // Guarantees uniqueness.
    rec.agg = AggValue{static_cast<int64_t>(i), 1};
    points.push_back(rec);
  }
  std::sort(points.begin(), points.end(),
            [](const PointRecord& a, const PointRecord& b) {
              return PackOrderCompare(a.coords, b.coords, 3) < 0;
            });
  return points;
}

void BM_PackedRTreeBuild(benchmark::State& state) {
  MakeBenchDir(kDir);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  auto points = MakeSortedPoints(n);
  BufferPool pool(256);
  RTreeOptions options;
  options.dims = 3;
  for (auto _ : state) {
    VectorPointSource source(points);
    auto tree = PackedRTree::Build(std::string(kDir) + "/build.ctr",
                                   options, &pool, &source,
                                   [](uint32_t) { return 3; });
    if (!tree.ok()) state.SkipWithError("build failed");
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * n * 24);
}
BENCHMARK(BM_PackedRTreeBuild)->Arg(10000)->Arg(100000)->Arg(500000);

void BM_PackedRTreeSearch(benchmark::State& state) {
  MakeBenchDir(kDir);
  const uint32_t n = 200000;
  auto points = MakeSortedPoints(n);
  BufferPool pool(4096);
  RTreeOptions options;
  options.dims = 3;
  VectorPointSource source(points);
  auto tree_result = PackedRTree::Build(std::string(kDir) + "/search.ctr",
                                        options, &pool, &source,
                                        [](uint32_t) { return 3; });
  if (!tree_result.ok()) {
    state.SkipWithError("build failed");
    return;
  }
  auto tree = std::move(tree_result).value();
  Rng rng(5);
  uint64_t found = 0;
  for (auto _ : state) {
    Rect query = Rect::Full(3);
    // Slice on the most-significant pack dimension.
    const Coord z = 1 + static_cast<Coord>(rng.Uniform(n));
    query.lo[2] = z;
    query.hi[2] = z + 200;
    Status st = tree->Search(query, [&](const PointRecord&) { ++found; });
    if (!st.ok()) state.SkipWithError("search failed");
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedRTreeSearch);

// Leaf-scan cost per examined point, by leaf arity (arg = 1..kMaxDims):
// a single-view tree of that arity held in a warm pool, searched with one
// band on every coordinate, so each examined point is tested on all of
// them. Items = points examined (inside the leaf windows).
void BM_PackedRTreeScan(benchmark::State& state) {
  MakeBenchDir(kDir);
  const uint8_t arity = static_cast<uint8_t>(state.range(0));
  constexpr Coord kDomain = 1 << 16;
  constexpr uint32_t kPoints = 100000;
  std::vector<PointRecord> points(kPoints);
  Rng rng(17 + arity);
  for (PointRecord& rec : points) {
    rec.view_id = 1;
    for (uint8_t d = 0; d < arity; ++d) {
      rec.coords[d] = 1 + static_cast<Coord>(rng.Uniform(kDomain));
    }
    rec.agg = AggValue{static_cast<int64_t>(rng.Uniform(1000)), 1};
  }
  auto pack_less = [arity](const PointRecord& a, const PointRecord& b) {
    return PackOrderCompare(a.coords, b.coords, arity) < 0;
  };
  std::sort(points.begin(), points.end(), pack_less);
  points.erase(std::unique(points.begin(), points.end(),
                           [&](const PointRecord& a, const PointRecord& b) {
                             return !pack_less(a, b) && !pack_less(b, a);
                           }),
               points.end());
  BufferPool pool(2048);  // Holds the whole tree: the scan is CPU-bound.
  RTreeOptions options;
  options.dims = arity;
  VectorPointSource source(std::move(points));
  auto built = PackedRTree::Build(std::string(kDir) + "/scan.ctr", options,
                                  &pool, &source,
                                  [arity](uint32_t) { return arity; });
  if (!built.ok()) {
    state.SkipWithError("build failed");
    return;
  }
  auto tree = std::move(built).value();
  Rect band;
  for (uint8_t d = 0; d < arity; ++d) {
    band.lo[d] = kDomain / 16;
    band.hi[d] = kDomain - kDomain / 16;
  }
  uint64_t examined = 0;
  uint64_t emitted = 0;
  for (auto _ : state) {
    SearchStats stats;
    Status st = tree->Search(
        band,
        [](const PointRecord& rec) { benchmark::DoNotOptimize(rec.agg.sum); },
        &stats);
    if (!st.ok()) state.SkipWithError("search failed");
    examined += stats.points_examined;
    emitted += stats.points_emitted;
  }
  state.SetItemsProcessed(static_cast<int64_t>(examined));
  state.counters["emitted_per_examined"] =
      examined == 0 ? 0.0 : static_cast<double>(emitted) / examined;
}
BENCHMARK(BM_PackedRTreeScan)->DenseRange(1, kMaxDims);

// Verify-on-read overhead: the same slice workload through a pool far
// smaller than the tree, so every search performs physical reads. Arg 1
// searches the tree as built (every page CRC-verified on read); Arg 0
// searches a copy whose .crc sidecar was removed (the pre-checksum open
// path — reads unverified). The wall-clock ratio is the checksum cost;
// the integrity design budgets ≤3% (DESIGN.md §13).
void BM_PackedRTreeSearchColdRead(benchmark::State& state) {
  MakeBenchDir(kDir);
  const bool verify = state.range(0) != 0;
  const uint32_t n = 200000;
  auto points = MakeSortedPoints(n);
  BufferPool pool(8);
  RTreeOptions options;
  options.dims = 3;
  const std::string verified_path = std::string(kDir) + "/cold.ctr";
  {
    VectorPointSource source(points);
    auto built = PackedRTree::Build(verified_path, options, &pool, &source,
                                    [](uint32_t) { return 3; });
    if (!built.ok()) {
      state.SkipWithError("build failed");
      return;
    }
  }
  std::string path = verified_path;
  if (!verify) {
    path = std::string(kDir) + "/cold_nocrc.ctr";
    std::error_code ec;
    std::filesystem::copy_file(
        verified_path, path, std::filesystem::copy_options::overwrite_existing,
        ec);
    if (ec || !RemoveChecksumSidecar(path).ok()) {
      state.SkipWithError("copy failed");
      return;
    }
  }
  auto opened = PackedRTree::Open(path, &pool);
  if (!opened.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  auto tree = std::move(opened).value();
  Rng rng(5);
  uint64_t found = 0;
  for (auto _ : state) {
    Rect query = Rect::Full(3);
    const Coord z = 1 + static_cast<Coord>(rng.Uniform(n));
    query.lo[2] = z;
    query.hi[2] = z + 2000;
    Status st = tree->Search(query, [&](const PointRecord&) { ++found; });
    if (!st.ok()) state.SkipWithError("search failed");
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedRTreeSearchColdRead)->Arg(1)->Arg(0);

// CRC-32C of one 8 KiB page, the unit every verify-on-read and sidecar
// write checksums. Arg 1 = Crc32c as dispatched (three interleaved SSE4.2
// streams where the CPU has them), Arg 0 = the slice-by-8 fallback.
void BM_Crc32cPage(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  std::vector<unsigned char> page(kPageSize);
  Rng rng(3);
  for (auto& b : page) b = static_cast<unsigned char>(rng.Uniform(256));
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = dispatched
              ? Crc32c(page.data(), page.size(), crc)
              : crc32_internal::Crc32cSlice8(page.data(), page.size(), crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * kPageSize);
}
BENCHMARK(BM_Crc32cPage)->Arg(1)->Arg(0);

// Superset re-aggregation through CubetreeEngine::Execute: one view
// (a, b, c) over 300k facts with 100 values per attr, pack-ordered on c,
// then b, then a, held in a warm pool, and three queries that fold the
// same full scan into ~10k groups of two attrs. The arg picks the
// aggregator's shape: 0 = stream (GROUP BY c, b: groups arrive one after
// another), 1 = run-keyed index (GROUP BY c, a: an index per c-run),
// 2 = whole-answer index (GROUP BY b, a: no run key). Items = points
// examined.
void BM_SupersetAggregate(benchmark::State& state) {
  static const char* const kShapes[] = {"stream", "run-keyed", "whole"};
  const int shape = static_cast<int>(state.range(0));
  state.SetLabel(kShapes[shape]);
  const std::string dir = std::string(kDir) + "/superset";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  MakeBenchDir(dir.c_str());
  CubeSchema schema;
  schema.attr_names = {"a", "b", "c"};
  schema.attr_domains = {100, 100, 100};
  std::vector<FactTuple> facts(300000);
  Rng rng(29);
  for (FactTuple& t : facts) {
    for (size_t a = 0; a < 3; ++a) {
      t.attr_values[a] = 1 + static_cast<Coord>(rng.Uniform(100));
    }
    t.measure = static_cast<int64_t>(1 + rng.Uniform(50));
  }
  ViewDef view;
  view.id = 7;
  view.attrs = {0, 1, 2};
  class Provider : public FactProvider {
   public:
    explicit Provider(const std::vector<FactTuple>* facts) : facts_(facts) {}
    Result<std::unique_ptr<FactSource>> Open() override {
      return std::unique_ptr<FactSource>(
          std::make_unique<VectorFactSource>(facts_));
    }

   private:
    const std::vector<FactTuple>* facts_;
  } provider(&facts);
  CubeBuilder::Options build_options;
  build_options.temp_dir = dir;
  CubeBuilder builder(schema, build_options);
  auto data = builder.ComputeAll({view}, &provider, "agg");
  BufferPool pool(8192);  // Holds the whole tree: the fold is CPU-bound.
  CubetreeEngine::Options options;
  options.dir = dir;
  options.name = "agg";
  auto engine = CubetreeEngine::Create(schema, options, &pool);
  if (!data.ok() || !engine.ok() || !(*engine)->Load({view}, data->get()).ok() ||
      !(*data)->Destroy().ok()) {
    state.SkipWithError("engine setup failed");
    return;
  }
  SliceQuery query;
  query.attrs = shape == 0 ? std::vector<uint32_t>{2, 1}
                : shape == 1 ? std::vector<uint32_t>{2, 0}
                             : std::vector<uint32_t>{1, 0};
  for (uint32_t attr : query.attrs) query.node_mask |= 1u << attr;
  query.bindings.assign(2, std::nullopt);
  uint64_t examined = 0;
  size_t rows = 0;
  for (auto _ : state) {
    QueryExecStats stats;
    auto result = (*engine)->Execute(query, &stats);
    if (!result.ok()) {
      state.SkipWithError("query failed");
      return;
    }
    benchmark::DoNotOptimize(result->rows.data());
    examined += stats.tuples_accessed;
    rows = result->rows.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(examined));
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_SupersetAggregate)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);

// The k-way merge an ApplyDelta runs: a 100k-point main tree, `pending`
// (the arg) pending delta trees and a 10k-point increment, packed by
// PackedRTree::Build into a new file.
void BM_MergePack(benchmark::State& state) {
  MakeBenchDir(kDir);
  const uint32_t n = 100000;
  const int64_t pending = state.range(0);
  const auto delta = MakeSortedPoints(n / 10);
  BufferPool pool(256);
  RTreeOptions options;
  options.dims = 3;
  auto arity = [](uint32_t) { return static_cast<uint8_t>(3); };
  auto build = [&](const std::string& name, std::vector<PointRecord> points) {
    VectorPointSource source(std::move(points));
    return std::move(PackedRTree::Build(std::string(kDir) + "/" + name,
                                        options, &pool, &source, arity)
                         .value());
  };
  std::vector<std::unique_ptr<PackedRTree>> trees;
  trees.push_back(build("mp_base.ctr", MakeSortedPoints(n)));
  for (int64_t d = 0; d < pending; ++d) {
    trees.push_back(build("mp_d" + std::to_string(d) + ".ctr", delta));
  }
  for (auto _ : state) {
    std::vector<std::unique_ptr<PointSource>> inputs;
    for (const auto& tree : trees) {
      inputs.push_back(std::make_unique<PackedRTree::Scanner>(tree.get()));
    }
    inputs.push_back(std::make_unique<VectorPointSource>(delta));
    MergePointSource merged(std::move(inputs), options.dims);
    auto out = PackedRTree::Build(std::string(kDir) + "/mp_out.ctr", options,
                                  &pool, &merged, arity);
    if (!out.ok()) state.SkipWithError("merge failed");
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * (n + (pending + 1) * (n / 10)));
}
BENCHMARK(BM_MergePack)->Arg(0)->Arg(3);

void BM_BTreeInsertRandom(benchmark::State& state) {
  MakeBenchDir(kDir);
  for (auto _ : state) {
    state.PauseTiming();
    BufferPool pool(1024);
    BTreeOptions options;
    options.key_parts = 3;
    options.value_size = 12;
    auto tree = std::move(
        BPlusTree::Create(std::string(kDir) + "/bt.idx", options, &pool)
            .value());
    Rng rng(7);
    char value[12] = {0};
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      uint32_t key[3] = {static_cast<uint32_t>(rng.Next()),
                         static_cast<uint32_t>(rng.Next()),
                         static_cast<uint32_t>(i)};
      Status st = tree->Insert(key, value);
      if (!st.ok()) state.SkipWithError("insert failed");
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsertRandom)->Arg(100000);

void BM_BTreeLookup(benchmark::State& state) {
  MakeBenchDir(kDir);
  BufferPool pool(4096);
  BTreeOptions options;
  options.key_parts = 1;
  options.value_size = 8;
  auto tree = std::move(
      BPlusTree::Create(std::string(kDir) + "/btl.idx", options, &pool)
          .value());
  char value[8] = {0};
  const uint32_t n = 200000;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t key[1] = {i * 2 + 1};
    Status st = tree->Insert(key, value);
    if (!st.ok()) {
      // A dropped error here would make the lookup loop silently measure a
      // partially-populated tree.
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  Rng rng(9);
  char out[8];
  for (auto _ : state) {
    uint32_t key[1] = {static_cast<uint32_t>(rng.Uniform(2 * n))};
    auto found = tree->Lookup(key, out);
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup);

void BM_ExternalSort(benchmark::State& state) {
  MakeBenchDir(kDir);
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ExternalSorter::Options options;
    options.record_size = 24;
    options.memory_budget_bytes = 1 << 20;  // Forces spills at 100k+.
    options.temp_dir = kDir;
    ExternalSorter sorter(options, [](const char* a, const char* b) {
      return DecodeFixed64(a) < DecodeFixed64(b);
    });
    Rng rng(3);
    char record[24] = {0};
    for (int i = 0; i < n; ++i) {
      EncodeFixed64(record, rng.Next());
      if (!sorter.Add(record).ok()) state.SkipWithError("add failed");
    }
    auto stream = sorter.Finish();
    if (!stream.ok()) {
      state.SkipWithError("finish failed");
      continue;
    }
    const char* rec = nullptr;
    uint64_t count = 0;
    do {
      if (!(*stream)->Next(&rec).ok()) break;
      ++count;
    } while (rec != nullptr);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * n * 24);
}
BENCHMARK(BM_ExternalSort)->Arg(100000)->Arg(500000);

}  // namespace
}  // namespace cubetree

// Custom main instead of BENCHMARK_MAIN(): peels off --json=<path> before
// handing the remaining flags to google-benchmark, then embeds the
// library's own JSON report inside the shared bench envelope so this
// binary emits the same schema as the macro benches. The library insists
// on writing its file report itself, so we route it through a sidecar
// file (--benchmark_out) and fold that into the envelope afterwards.
int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> pass_args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      pass_args.push_back(argv[i]);
    }
  }
  const std::string gbench_path = json_path + ".gbench";
  std::string out_flag = "--benchmark_out=" + gbench_path;
  std::string format_flag = "--benchmark_out_format=json";
  if (!json_path.empty()) {
    pass_args.push_back(out_flag.data());
    pass_args.push_back(format_flag.data());
  }
  int pass_argc = static_cast<int>(pass_args.size());
  benchmark::Initialize(&pass_argc, pass_args.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, pass_args.data())) {
    return 1;
  }
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }

  cubetree::bench::BenchArgs args;
  args.json_path = json_path;
  cubetree::bench::JsonWriter json(args, "bench_micro");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::string report;
  if (std::FILE* f = std::fopen(gbench_path.c_str(), "rb")) {
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      report.append(buf, n);
    }
    std::fclose(f);
    std::remove(gbench_path.c_str());
  }
  auto parsed = cubetree::obs::JsonValue::Parse(report);
  if (parsed.ok()) {
    json.results().Set("google_benchmark", std::move(*parsed));
  } else {
    json.results().Set("google_benchmark_parse_error",
                       cubetree::obs::JsonValue(parsed.status().message()));
  }
  json.Finish();
  return 0;
}
