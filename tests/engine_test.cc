#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "engine/conventional_engine.h"
#include "engine/cubetree_engine.h"
#include "engine/query_parser.h"
#include "obs/trace.h"
#include "olap/cube_builder.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

CubeSchema SmallSchema() {
  CubeSchema schema;
  schema.attr_names = {"partkey", "suppkey", "custkey"};
  schema.attr_domains = {30, 8, 20};
  return schema;
}

ViewDef MakeView(uint32_t id, std::vector<uint32_t> attrs) {
  ViewDef v;
  v.id = id;
  v.attrs = std::move(attrs);
  return v;
}

/// Shared fixture: a small deterministic fact table, the paper's view set
/// shape (top view, ps, singletons, none), both engines loaded.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTestDir("engine");
    schema_ = SmallSchema();
    Rng rng(31);
    for (int i = 0; i < 3000; ++i) {
      FactTuple t;
      t.attr_values[0] = static_cast<Coord>(1 + rng.Uniform(30));
      t.attr_values[1] = static_cast<Coord>(1 + rng.Uniform(8));
      t.attr_values[2] = static_cast<Coord>(1 + rng.Uniform(20));
      t.measure = static_cast<int64_t>(1 + rng.Uniform(50));
      facts_.push_back(t);
    }
    views_ = {
        MakeView(7, {0, 1, 2}), MakeView(3, {0, 1}), MakeView(4, {2}),
        MakeView(2, {1}),       MakeView(1, {0}),    MakeView(0, {}),
    };
    indices_ = MakeIndices();
    pool_ = std::make_unique<BufferPool>(512);
    LoadEngines();
  }

  std::vector<IndexDef> MakeIndices() {
    std::vector<IndexDef> indices;
    IndexDef csp;
    csp.id = 1;
    csp.view_id = 7;
    csp.key_attrs = {2, 1, 0};
    IndexDef pcs;
    pcs.id = 2;
    pcs.view_id = 7;
    pcs.key_attrs = {0, 2, 1};
    IndexDef spc;
    spc.id = 3;
    spc.view_id = 7;
    spc.key_attrs = {1, 0, 2};
    indices.push_back(csp);
    indices.push_back(pcs);
    indices.push_back(spc);
    return indices;
  }

  class Provider : public FactProvider {
   public:
    explicit Provider(const std::vector<FactTuple>* facts) : facts_(facts) {}
    Result<std::unique_ptr<FactSource>> Open() override {
      return std::unique_ptr<FactSource>(new VectorFactSource(facts_));
    }

   private:
    const std::vector<FactTuple>* facts_;
  };

  std::unique_ptr<ComputedViews> Compute(
      const std::vector<ViewDef>& views,
      const std::vector<FactTuple>& facts, const std::string& tag) {
    CubeBuilder::Options options;
    options.temp_dir = dir_;
    options.sort_budget_bytes = 1 << 18;
    CubeBuilder builder(schema_, options);
    Provider provider(&facts);
    auto result = builder.ComputeAll(views, &provider, tag);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  void LoadEngines() {
    // Conventional: selected views + indices.
    auto data = Compute(views_, facts_, "base_conv");
    ConventionalEngine::Options conv_options;
    conv_options.dir = dir_;
    auto conv_result =
        ConventionalEngine::Create(schema_, conv_options, pool_.get());
    ASSERT_TRUE(conv_result.ok());
    conv_ = std::move(conv_result).value();
    ASSERT_OK(conv_->LoadTables(views_, data.get()));
    ASSERT_OK(conv_->BuildIndices(indices_));
    ASSERT_OK(data->Destroy());

    // Cubetrees: same views + the two replicas the paper materializes.
    cbt_views_ = views_;
    cbt_views_.push_back(MakeView(1000, {1, 2, 0}));  // (s,c,p) ~ I_pcs.
    cbt_views_.push_back(MakeView(1001, {2, 0, 1}));  // (c,p,s) ~ I_spc.
    auto cbt_data = Compute(cbt_views_, facts_, "base_cbt");
    CubetreeEngine::Options cbt_options;
    cbt_options.dir = dir_;
    auto cbt_result =
        CubetreeEngine::Create(schema_, cbt_options, pool_.get());
    ASSERT_TRUE(cbt_result.ok());
    cbt_ = std::move(cbt_result).value();
    ASSERT_OK(cbt_->Load(cbt_views_, cbt_data.get()));
    ASSERT_OK(cbt_data->Destroy());
  }

  /// Brute-force reference answer over the raw facts (equality and range
  /// predicates, explicit grouping).
  QueryResult Reference(const SliceQuery& query,
                        const std::vector<FactTuple>& facts) {
    QueryResult result;
    std::map<std::vector<Coord>, AggValue> groups;
    for (const FactTuple& t : facts) {
      bool match = true;
      for (size_t i = 0; i < query.attrs.size(); ++i) {
        const auto [lo, hi] = query.AttrInterval(i);
        const Coord value = t.attr_values[query.attrs[i]];
        if (value < lo || value > hi) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      std::vector<Coord> key;
      for (size_t i = 0; i < query.attrs.size(); ++i) {
        if (query.IsGrouped(i)) {
          key.push_back(t.attr_values[query.attrs[i]]);
        }
      }
      AggValue& agg = groups[key];
      agg.sum += t.measure;
      agg.count += 1;
    }
    for (auto& [key, agg] : groups) result.rows.push_back({key, agg});
    result.SortRows();
    return result;
  }

  void ExpectBothMatchReference(const SliceQuery& query,
                                const std::vector<FactTuple>& facts) {
    QueryResult expected = Reference(query, facts);
    QueryExecStats conv_stats, cbt_stats;
    auto conv_result = conv_->Execute(query, &conv_stats);
    ASSERT_TRUE(conv_result.ok()) << conv_result.status().ToString();
    conv_result->SortRows();
    EXPECT_TRUE(conv_result->SameRowsAs(expected))
        << "conventional mismatch on " << query.ToString(schema_)
        << " plan=" << conv_stats.plan << " got " << conv_result->rows.size()
        << " rows, want " << expected.rows.size();
    auto cbt_result = cbt_->Execute(query, &cbt_stats);
    ASSERT_TRUE(cbt_result.ok()) << cbt_result.status().ToString();
    cbt_result->SortRows();
    EXPECT_TRUE(cbt_result->SameRowsAs(expected))
        << "cubetree mismatch on " << query.ToString(schema_) << " plan="
        << cbt_stats.plan << " got " << cbt_result->rows.size()
        << " rows, want " << expected.rows.size();
  }

  std::string dir_;
  CubeSchema schema_;
  std::vector<FactTuple> facts_;
  std::vector<ViewDef> views_;
  std::vector<ViewDef> cbt_views_;
  std::vector<IndexDef> indices_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<ConventionalEngine> conv_;
  std::unique_ptr<CubetreeEngine> cbt_;
};

TEST_F(EngineTest, AllSliceQueryTypesMatchBruteForce) {
  // Every (node, bound-subset) type of the 3-attribute lattice, several
  // random value draws each: both engines must equal brute force.
  SliceQueryGenerator gen(schema_, 77);
  CubeLattice lattice(schema_);
  for (size_t node = 0; node < lattice.num_nodes(); ++node) {
    const auto& attrs = lattice.node(node).attrs;
    for (int draw = 0; draw < 8; ++draw) {
      SliceQuery query = gen.ForNode(attrs, /*exclude_unbound=*/false);
      ExpectBothMatchReference(query, facts_);
    }
  }
}

TEST_F(EngineTest, QueriesOnUnmaterializedNodesUseSuperset) {
  // Nodes pc and sc are not materialized; both engines must re-aggregate
  // from the top view (the paper's "additional aggregate step").
  SliceQuery query;
  query.node_mask = 0b101;
  query.attrs = {0, 2};
  query.bindings = {std::nullopt, Coord{5}};
  QueryExecStats stats;
  auto result = cbt_->Execute(query, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(stats.plan.find("agg"), std::string::npos) << stats.plan;
  ExpectBothMatchReference(query, facts_);
}

TEST_F(EngineTest, ConventionalUsesIndexWhenPredicateMatches) {
  SliceQuery query;
  query.node_mask = 0b111;
  query.attrs = {0, 1, 2};
  query.bindings = {std::nullopt, std::nullopt, Coord{7}};  // custkey = 7.
  QueryExecStats stats;
  auto result = conv_->Execute(query, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(stats.plan.find("index"), std::string::npos) << stats.plan;
  // The csp index restricts to ~1/20 of the view.
  EXPECT_LT(stats.tuples_accessed, 3000u / 4);
}

TEST_F(EngineTest, ConventionalFallsBackToScan) {
  SliceQuery query;  // Unbound query on ps: no index prefix applies.
  query.node_mask = 0b011;
  query.attrs = {0, 1};
  query.bindings = {std::nullopt, std::nullopt};
  QueryExecStats stats;
  auto result = conv_->Execute(query, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(stats.plan.find("scan"), std::string::npos) << stats.plan;
}

TEST_F(EngineTest, CubetreeRoutesToReplicaForBoundSuffix) {
  // partkey bound: best replica is (s,c,p) whose pack order leads with p.
  SliceQuery query;
  query.node_mask = 0b111;
  query.attrs = {0, 1, 2};
  query.bindings = {Coord{3}, std::nullopt, std::nullopt};
  QueryExecStats stats;
  auto result = cbt_->Execute(query, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(stats.plan.find("V{suppkey,custkey,partkey}"),
            std::string::npos)
      << stats.plan;
  ExpectBothMatchReference(query, facts_);
}

TEST_F(EngineTest, CubetreeExaminesFewTuplesOnSelectiveSlices) {
  SliceQuery query;
  query.node_mask = 0b111;
  query.attrs = {0, 1, 2};
  query.bindings = {Coord{3}, Coord{2}, std::nullopt};
  QueryExecStats stats;
  auto result = cbt_->Execute(query, &stats);
  ASSERT_TRUE(result.ok());
  // Pruning works at leaf-page granularity: a couple of leaves (~300
  // entries each) is the honest floor, far below the ~2900-row view.
  EXPECT_LT(stats.tuples_accessed, 1000u)
      << "selective slice should not scan the whole view";
  EXPECT_LE(stats.pages_accessed, 6u);
}

TEST_F(EngineTest, RangeQueriesMatchBruteForce) {
  // BETWEEN predicates on every node, both engines vs brute force.
  SliceQueryGenerator gen(schema_, 123);
  CubeLattice lattice(schema_);
  for (size_t node = 0; node < lattice.num_nodes(); ++node) {
    const auto& attrs = lattice.node(node).attrs;
    if (attrs.empty()) continue;
    for (double fraction : {0.1, 0.4}) {
      for (int draw = 0; draw < 4; ++draw) {
        SliceQuery query = gen.ForNodeRange(attrs, fraction, true);
        ExpectBothMatchReference(query, facts_);
      }
    }
  }
}

TEST_F(EngineTest, RangeQueryWithCollapsedAttr) {
  // WHERE custkey BETWEEN 5 AND 9, grouped by partkey only (the range
  // attr collapsed out of the output).
  SliceQuery query;
  query.node_mask = 0b101;
  query.attrs = {0, 2};
  query.bindings = {std::nullopt, std::nullopt};
  query.ranges = {std::nullopt, std::make_pair(Coord{5}, Coord{9})};
  query.grouped = {true, false};
  ExpectBothMatchReference(query, facts_);
  // Same predicates but grouped by both: more groups.
  SliceQuery grouped_query = query;
  grouped_query.grouped = {true, true};
  ExpectBothMatchReference(grouped_query, facts_);
  auto a = conv_->Execute(query, nullptr);
  auto b = conv_->Execute(grouped_query, nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(a->rows.size(), b->rows.size());
}

TEST_F(EngineTest, RangeOnIndexLeadingKeyBoundsTheScan) {
  // custkey BETWEEN uses the csp index: a band, not a full scan.
  SliceQuery query;
  query.node_mask = 0b111;
  query.attrs = {0, 1, 2};
  query.bindings = {std::nullopt, std::nullopt, std::nullopt};
  query.ranges = {std::nullopt, std::nullopt,
                  std::make_pair(Coord{3}, Coord{6})};
  QueryExecStats stats;
  auto result = conv_->Execute(query, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(stats.plan.find("index"), std::string::npos) << stats.plan;
  // ~4/20 of the view, twice (entry + heap fetch), with slack.
  EXPECT_LT(stats.tuples_accessed, 3000u);
  ExpectBothMatchReference(query, facts_);
}

TEST_F(EngineTest, StorageCubetreesSmallerThanConventional) {
  // The headline storage claim, at small scale: packed+compressed trees
  // (even with two extra replicas) undercut tables + B-trees.
  EXPECT_LT(cbt_->StorageBytes(), conv_->StorageBytes())
      << "cubetrees " << cbt_->StorageBytes() << " vs conventional "
      << conv_->StorageBytes();
}

TEST_F(EngineTest, IncrementalUpdatesKeepEnginesConsistent) {
  // Build a delta, apply per-tuple to conventional and merge-pack to the
  // cubetrees; answers must match brute force over base+delta.
  Rng rng(57);
  std::vector<FactTuple> delta;
  for (int i = 0; i < 400; ++i) {
    FactTuple t;
    t.attr_values[0] = static_cast<Coord>(1 + rng.Uniform(30));
    t.attr_values[1] = static_cast<Coord>(1 + rng.Uniform(8));
    t.attr_values[2] = static_cast<Coord>(1 + rng.Uniform(20));
    t.measure = static_cast<int64_t>(1 + rng.Uniform(50));
    delta.push_back(t);
  }
  ASSERT_OK(conv_->BuildMaintenanceIndices());
  auto conv_delta = Compute(views_, delta, "delta_conv");
  ASSERT_OK(conv_->ApplyDeltaIncremental(conv_delta.get()));
  ASSERT_OK(conv_delta->Destroy());

  auto cbt_delta = Compute(cbt_views_, delta, "delta_cbt");
  ASSERT_OK(cbt_->ApplyDelta(cbt_delta.get()));
  ASSERT_OK(cbt_delta->Destroy());

  std::vector<FactTuple> all = facts_;
  all.insert(all.end(), delta.begin(), delta.end());

  SliceQueryGenerator gen(schema_, 91);
  CubeLattice lattice(schema_);
  for (size_t node = 0; node < lattice.num_nodes(); ++node) {
    for (int draw = 0; draw < 4; ++draw) {
      SliceQuery query =
          gen.ForNode(lattice.node(node).attrs, /*exclude_unbound=*/false);
      ExpectBothMatchReference(query, all);
    }
  }
}

TEST_F(EngineTest, RebuildMatchesIncremental) {
  Rng rng(58);
  std::vector<FactTuple> delta;
  for (int i = 0; i < 200; ++i) {
    FactTuple t;
    t.attr_values[0] = static_cast<Coord>(1 + rng.Uniform(30));
    t.attr_values[1] = static_cast<Coord>(1 + rng.Uniform(8));
    t.attr_values[2] = static_cast<Coord>(1 + rng.Uniform(20));
    t.measure = 3;
    delta.push_back(t);
  }
  std::vector<FactTuple> all = facts_;
  all.insert(all.end(), delta.begin(), delta.end());
  auto full = Compute(views_, all, "full");
  ASSERT_OK(conv_->Rebuild(full.get()));
  ASSERT_OK(full->Destroy());

  SliceQueryGenerator gen(schema_, 17);
  for (int draw = 0; draw < 10; ++draw) {
    SliceQuery query = gen.ForNode({0, 1, 2}, false);
    QueryResult expected = Reference(query, all);
    auto got = conv_->Execute(query, nullptr);
    ASSERT_TRUE(got.ok());
    got->SortRows();
    EXPECT_TRUE(got->SameRowsAs(expected));
  }
}

TEST_F(EngineTest, DeltaTreeRefreshMatchesBruteForce) {
  Rng rng(77);
  std::vector<FactTuple> all = facts_;
  for (int round = 0; round < 3; ++round) {
    std::vector<FactTuple> delta;
    for (int i = 0; i < 200; ++i) {
      FactTuple t;
      t.attr_values[0] = static_cast<Coord>(1 + rng.Uniform(30));
      t.attr_values[1] = static_cast<Coord>(1 + rng.Uniform(8));
      t.attr_values[2] = static_cast<Coord>(1 + rng.Uniform(20));
      t.measure = static_cast<int64_t>(1 + rng.Uniform(50));
      delta.push_back(t);
    }
    auto d = Compute(cbt_views_, delta, "dt" + std::to_string(round));
    ASSERT_OK(cbt_->ApplyDeltaPartial(d.get()));
    ASSERT_OK(d->Destroy());
    all.insert(all.end(), delta.begin(), delta.end());
  }
  EXPECT_GT(cbt_->forest()->TotalDeltas(), 0u);

  SliceQueryGenerator gen(schema_, 3);
  for (int draw = 0; draw < 10; ++draw) {
    SliceQuery query = gen.ForNode({0, 1, 2}, false);
    QueryResult expected = Reference(query, all);
    auto got = cbt_->Execute(query, nullptr);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    got->SortRows();
    ASSERT_TRUE(got->SameRowsAs(expected))
        << "with deltas: " << query.ToString(schema_);
  }
  // Compaction preserves the answers and clears the deltas.
  ASSERT_OK(cbt_->Compact());
  EXPECT_EQ(cbt_->forest()->TotalDeltas(), 0u);
  for (int draw = 0; draw < 5; ++draw) {
    SliceQuery query = gen.ForNode({0, 2}, false);
    QueryResult expected = Reference(query, all);
    auto got = cbt_->Execute(query, nullptr);
    ASSERT_TRUE(got.ok());
    got->SortRows();
    ASSERT_TRUE(got->SameRowsAs(expected));
  }
}

TEST_F(EngineTest, WalAccountsForEveryLoadedRow) {
  // A fresh engine with WAL on: every view row it loads must be logged.
  const std::string dir = MakeTestDir("engine_wal");
  BufferPool pool(128);
  auto stats = std::make_shared<IoStats>();
  ConventionalEngine::Options options;
  options.dir = dir;
  options.io_stats = stats;
  options.enable_wal = true;
  ASSERT_OK_AND_ASSIGN(auto engine,
                       ConventionalEngine::Create(schema_, options, &pool));
  auto data = Compute(views_, facts_, "wal");
  const IoStats before = *stats;
  ASSERT_OK(engine->LoadTables(views_, data.get()));
  const IoStats during = *stats - before;
  ASSERT_OK(data->Destroy());
  // The WAL stream is sequential and non-trivial relative to the tables.
  EXPECT_GT(during.sequential_writes, 0u);

  // Same load without WAL writes measurably fewer pages.
  auto stats2 = std::make_shared<IoStats>();
  ConventionalEngine::Options no_wal = options;
  no_wal.name = "nowal";
  no_wal.io_stats = stats2;
  no_wal.enable_wal = false;
  ASSERT_OK_AND_ASSIGN(auto engine2, ConventionalEngine::Create(
                                         schema_, no_wal, &pool));
  auto data2 = Compute(views_, facts_, "nowal");
  ASSERT_OK(engine2->LoadTables(views_, data2.get()));
  ASSERT_OK(data2->Destroy());
  EXPECT_GT(during.TotalWrites(), stats2->TotalWrites());
}

TEST_F(EngineTest, IncrementalWithoutMaintenanceIndicesFails) {
  auto delta = Compute(views_, facts_, "delta_none");
  EXPECT_FALSE(conv_->ApplyDeltaIncremental(delta.get()).ok());
  ASSERT_OK(delta->Destroy());
}

TEST_F(EngineTest, UnknownNodeFails) {
  SliceQuery query;
  query.node_mask = 0b1000;  // Attribute 3 does not exist in any view.
  query.attrs = {3};
  query.bindings = {std::nullopt};
  EXPECT_FALSE(conv_->Execute(query, nullptr).ok());
  EXPECT_FALSE(cbt_->Execute(query, nullptr).ok());
}

// --- Superset re-aggregation paths ----------------------------------------

/// The `name` annotation of the search span of the last traced query.
std::optional<obs::JsonValue> LastSearchAnnotation(const std::string& name) {
  auto trace = obs::Tracer::Instance().LastTrace();
  if (trace == nullptr) return std::nullopt;
  for (const obs::SpanRecord& span : trace->spans()) {
    if (span.name != "search") continue;
    for (const auto& [key, value] : span.annotations) {
      if (key == name) return value;
    }
  }
  return std::nullopt;
}

/// The `plan` annotation of the search span of the last traced query.
std::string LastSearchPlan() {
  const auto plan = LastSearchAnnotation("plan");
  return plan.has_value() ? plan->str() : "";
}

/// The `run_attrs` annotation of the search span of the last traced
/// query: how many grouped positions the aggregator's run key holds.
int LastSearchRunAttrs() {
  const auto run_attrs = LastSearchAnnotation("run_attrs");
  return run_attrs.has_value() ? static_cast<int>(run_attrs->number()) : -1;
}

/// A four-attribute cube (a, b, c, d) materialized as the single view
/// (d, a, b, c). Pack order sorts that view on c, then b, then a, then d,
/// so every query below is a superset query, and whether its groups
/// stream or go through the hash index depends only on where the grouped
/// attributes sit in that order.
class SupersetReaggregationTest : public EngineTest {
 protected:
  void SetUp() override {
    dir_ = MakeTestDir("reagg");
    schema_.attr_names = {"a", "b", "c", "d"};
    schema_.attr_domains = {12, 5, 9, 4};
    facts_ = RandomFacts(2500, 53);
    views_ = {MakeView(15, {3, 0, 1, 2})};
    pool_ = std::make_unique<BufferPool>(256);
    cbt_ = LoadEngine("reagg", /*pack_ordered=*/true);
    obs::Tracer::Instance().Clear();
    obs::Tracer::Instance().Enable(true);
  }

  void TearDown() override {
    obs::Tracer::Instance().Enable(false);
    obs::Tracer::Instance().Clear();
  }

  std::vector<FactTuple> RandomFacts(int n, uint64_t seed) const {
    Rng rng(seed);
    std::vector<FactTuple> facts;
    for (int i = 0; i < n; ++i) {
      FactTuple t;
      for (size_t a = 0; a < schema_.num_attrs(); ++a) {
        t.attr_values[a] =
            static_cast<Coord>(1 + rng.Uniform(schema_.attr_domains[a]));
      }
      t.measure = static_cast<int64_t>(1 + rng.Uniform(50));
      facts.push_back(t);
    }
    return facts;
  }

  std::unique_ptr<CubetreeEngine> LoadEngine(const std::string& name,
                                             bool pack_ordered) {
    CubetreeEngine::Options options;
    options.dir = dir_;
    options.name = name;
    options.rtree.enforce_pack_order = pack_ordered;
    auto created = CubetreeEngine::Create(schema_, options, pool_.get());
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    if (!created.ok()) return nullptr;
    auto data = Compute(views_, facts_, name);
    EXPECT_OK((*created)->Load(views_, data.get()));
    EXPECT_OK(data->Destroy());
    return std::move(created).value();
  }

  /// Runs `query` on `engine`, checks the answer against brute force over
  /// `facts` and returns the plan the search span recorded.
  std::string RunAgainstBruteForce(CubetreeEngine* engine,
                                   const SliceQuery& query,
                                   const std::vector<FactTuple>& facts) {
    QueryExecStats stats;
    auto got = engine->Execute(query, &stats);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!got.ok()) return "";
    EXPECT_EQ(stats.plan, "cubetree agg " + views_[0].Name(schema_));
    got->SortRows();
    const QueryResult expected = Reference(query, facts);
    EXPECT_TRUE(got->SameRowsAs(expected))
        << query.ToString(schema_) << " got " << got->rows.size()
        << " rows, want " << expected.rows.size();
    return LastSearchPlan();
  }

  /// SELECT ... GROUP BY the unbound attrs of `attrs`; `bindings` and
  /// `ranges` are parallel to `attrs` (empty = none).
  static SliceQuery Query(std::vector<uint32_t> attrs,
                          std::vector<std::optional<Coord>> bindings,
                          std::vector<std::optional<std::pair<Coord, Coord>>>
                              ranges = {}) {
    SliceQuery query;
    for (uint32_t attr : attrs) query.node_mask |= 1u << attr;
    query.attrs = std::move(attrs);
    query.bindings = std::move(bindings);
    query.ranges = std::move(ranges);
    return query;
  }
};

TEST_F(SupersetReaggregationTest, StreamsWhenGroupsLeadPackOrder) {
  // (b, c) are the two most significant positions of (d, a, b, c).
  EXPECT_EQ(RunAgainstBruteForce(
                cbt_.get(), Query({1, 2}, {std::nullopt, std::nullopt}),
                facts_),
            "stream");
  EXPECT_EQ(RunAgainstBruteForce(
                cbt_.get(),
                Query({1, 2}, {std::nullopt, std::nullopt},
                      {std::make_pair(Coord{2}, Coord{4}),
                       std::make_pair(Coord{3}, Coord{7})}),
                facts_),
            "stream");
  EXPECT_EQ(RunAgainstBruteForce(cbt_.get(), Query({2}, {std::nullopt}),
                                 facts_),
            "stream");
}

TEST_F(SupersetReaggregationTest, StreamsAcrossAnEqualityPinnedAttr) {
  // b pinned between the grouped c and a: within the scan it is constant,
  // so the groups of (a, c) still arrive one after another.
  for (Coord b = 1; b <= 5; ++b) {
    SCOPED_TRACE("b = " + std::to_string(b));
    EXPECT_EQ(RunAgainstBruteForce(
                  cbt_.get(),
                  Query({0, 1, 2}, {std::nullopt, b, std::nullopt}), facts_),
              "stream");
  }
  // The pinned attr may also be the most significant one.
  EXPECT_EQ(RunAgainstBruteForce(
                cbt_.get(),
                Query({0, 1, 2}, {std::nullopt, std::nullopt, Coord{4}}),
                facts_),
            "stream");
}

TEST_F(SupersetReaggregationTest, HashesOverDeltaTrees) {
  // A delta tree is a second sorted run: the same key can arrive from
  // both, so the pinned-attr query of the streaming test falls back.
  const std::vector<FactTuple> delta = RandomFacts(400, 54);
  auto data = Compute(views_, delta, "reagg_delta");
  ASSERT_OK(cbt_->ApplyDeltaPartial(data.get()));
  ASSERT_OK(data->Destroy());
  ASSERT_GT(cbt_->forest()->TotalDeltas(), 0u);
  std::vector<FactTuple> all = facts_;
  all.insert(all.end(), delta.begin(), delta.end());
  for (Coord b = 1; b <= 5; ++b) {
    SCOPED_TRACE("b = " + std::to_string(b));
    EXPECT_EQ(RunAgainstBruteForce(
                  cbt_.get(),
                  Query({0, 1, 2}, {std::nullopt, b, std::nullopt}), all),
              "reaggregate");
  }
}

TEST_F(SupersetReaggregationTest, HashesWhenGroupsSkipAnOpenAttr) {
  // (a, c) skip the open b: one c value's groups interleave across b.
  EXPECT_EQ(RunAgainstBruteForce(
                cbt_.get(), Query({0, 2}, {std::nullopt, std::nullopt}),
                facts_),
            "reaggregate");
  // A range on b collapsed out of the output leaves b unpinned too.
  SliceQuery collapsed =
      Query({0, 1, 2}, {std::nullopt, std::nullopt, std::nullopt},
            {std::nullopt, std::make_pair(Coord{2}, Coord{4}), std::nullopt});
  collapsed.grouped = {true, false, true};
  EXPECT_EQ(RunAgainstBruteForce(cbt_.get(), collapsed, facts_),
            "reaggregate");
}

TEST_F(SupersetReaggregationTest, HashesWithoutPackOrderGuarantee) {
  // A tree whose meta page records no pack-order guarantee promises no
  // emission order, so even a leading grouping takes the hash index.
  auto unordered = LoadEngine("reagg_unordered", /*pack_ordered=*/false);
  ASSERT_NE(unordered, nullptr);
  EXPECT_EQ(RunAgainstBruteForce(
                unordered.get(), Query({1, 2}, {std::nullopt, std::nullopt}),
                facts_),
            "reaggregate");
}


TEST_F(SupersetReaggregationTest, RunKeyedIndexGrowsPastItsEstimate) {
  // a's declared domain is 50x wider than the values the facts use, so the
  // pre-scan estimate (the box's share of the domain) sizes the index for
  // about 40 groups per c-run while each run holds about 400: the index
  // must grow several times inside a run, and again be reset between runs.
  schema_.attr_domains = {20000, 5, 3, 4};
  Rng rng(91);
  facts_.clear();
  for (int i = 0; i < 6000; ++i) {
    FactTuple t;
    t.attr_values[0] = static_cast<Coord>(1 + rng.Uniform(400));
    t.attr_values[1] = static_cast<Coord>(1 + rng.Uniform(5));
    t.attr_values[2] = static_cast<Coord>(1 + rng.Uniform(3));
    t.attr_values[3] = static_cast<Coord>(1 + rng.Uniform(4));
    t.measure = static_cast<int64_t>(1 + rng.Uniform(50));
    facts_.push_back(t);
  }
  auto engine = LoadEngine("reagg_growth", /*pack_ordered=*/true);
  ASSERT_NE(engine, nullptr);
  // (a, c) with b open: c is the run key, a is found through the index.
  EXPECT_EQ(RunAgainstBruteForce(
                engine.get(),
                Query({0, 2}, {std::nullopt, std::nullopt},
                      {std::make_pair(Coord{1}, Coord{400}), std::nullopt}),
                facts_),
            "reaggregate");
  EXPECT_EQ(LastSearchRunAttrs(), 1);
  // The same grouping without the skewed range: more groups per run than
  // the slot array's first size.
  EXPECT_EQ(RunAgainstBruteForce(
                engine.get(), Query({0, 2}, {std::nullopt, std::nullopt}),
                facts_),
            "reaggregate");
  EXPECT_EQ(LastSearchRunAttrs(), 1);
}

TEST_F(SupersetReaggregationTest, EmptyRangeGivesAnEmptyAnswer) {
  // A range with lo > hi selects nothing. Only the text parser rejects
  // one, so Execute must answer it (empty) on every plan, and the
  // pre-scan answer estimate must not turn its negative width into a size.
  const auto empty = std::make_pair(Coord{10}, Coord{3});
  // Superset view: run-keyed index (a through the index, c the run key).
  EXPECT_EQ(RunAgainstBruteForce(cbt_.get(),
                                 Query({0, 2}, {std::nullopt, std::nullopt},
                                       {empty, std::nullopt}),
                                 facts_),
            "reaggregate");
  // Superset view, streaming: the empty range on the run key itself.
  EXPECT_EQ(RunAgainstBruteForce(cbt_.get(),
                                 Query({1, 2}, {std::nullopt, std::nullopt},
                                       {std::nullopt, empty}),
                                 facts_),
            "stream");
  // The exact view (all four attrs grouped).
  const SliceQuery exact =
      Query({0, 1, 2, 3},
            {std::nullopt, std::nullopt, std::nullopt, std::nullopt},
            {empty, std::nullopt, std::nullopt, std::nullopt});
  QueryExecStats stats;
  auto got = cbt_->Execute(exact, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->rows.empty());
  EXPECT_EQ(stats.plan, "cubetree slice " + views_[0].Name(schema_));
  EXPECT_EQ(LastSearchPlan(), "slice");
  // A whole-answer index, on a tree without the pack-order flag.
  auto unordered = LoadEngine("reagg_empty_unordered", /*pack_ordered=*/false);
  ASSERT_NE(unordered, nullptr);
  EXPECT_EQ(RunAgainstBruteForce(unordered.get(),
                                 Query({0, 2}, {std::nullopt, std::nullopt},
                                       {empty, std::nullopt}),
                                 facts_),
            "reaggregate");
}

/// Five attributes (a, b, c, d, e) materialized as the single view
/// (e, d, a, b, c): pack order sorts on c, b, a, d, e.
class FiveAttrReaggregationTest : public SupersetReaggregationTest {
 protected:
  void SetUp() override {
    SupersetReaggregationTest::SetUp();
    schema_.attr_names = {"a", "b", "c", "d", "e"};
    schema_.attr_domains = {6, 4, 5, 3, 7};
    facts_ = RandomFacts(3000, 57);
    views_ = {MakeView(31, {4, 3, 0, 1, 2})};
    cbt_ = LoadEngine("reagg5", /*pack_ordered=*/true);
  }
};

TEST_F(FiveAttrReaggregationTest, RunKeySkipsAPinnedPositionInsideIt) {
  // c grouped, b pinned, a grouped, d open: the run key is (c, a) with b
  // skipped between them, and e is found through the index.
  for (Coord b = 1; b <= 4; ++b) {
    SCOPED_TRACE("b = " + std::to_string(b));
    EXPECT_EQ(RunAgainstBruteForce(
                  cbt_.get(),
                  Query({0, 1, 2, 4},
                        {std::nullopt, b, std::nullopt, std::nullopt}),
                  facts_),
              "reaggregate");
    EXPECT_EQ(LastSearchRunAttrs(), 2);
  }
}

TEST_F(FiveAttrReaggregationTest, SeededShapeSweepMatchesBruteForce) {
  // Random shapes over the five attrs (absent, grouped, grouped band,
  // grouped single-value band, collapsed band, equality) on the flagged
  // tree, on the flagged tree with delta trees, and on an unflagged tree.
  // Over delta trees or without the pack-order flag no run key may form.
  auto delta_engine = LoadEngine("reagg5_delta", /*pack_ordered=*/true);
  ASSERT_NE(delta_engine, nullptr);
  const std::vector<FactTuple> delta = RandomFacts(500, 58);
  auto data = Compute(views_, delta, "reagg5_delta_inc");
  ASSERT_OK(delta_engine->ApplyDeltaPartial(data.get()));
  ASSERT_OK(data->Destroy());
  ASSERT_GT(delta_engine->forest()->TotalDeltas(), 0u);
  std::vector<FactTuple> with_delta = facts_;
  with_delta.insert(with_delta.end(), delta.begin(), delta.end());
  auto unflagged = LoadEngine("reagg5_unflagged", /*pack_ordered=*/false);
  ASSERT_NE(unflagged, nullptr);

  struct Case {
    const char* name;
    CubetreeEngine* engine;
    const std::vector<FactTuple>* facts;
    bool run_key_allowed;
  };
  const Case cases[] = {
      {"flagged", cbt_.get(), &facts_, true},
      {"deltas", delta_engine.get(), &with_delta, false},
      {"unflagged", unflagged.get(), &facts_, false},
  };
  std::map<std::string, int> seen;
  Rng rng(4242);
  for (const Case& c : cases) {
    for (int round = 0; round < 120; ++round) {
      SliceQuery query;
      for (uint32_t attr = 0; attr < 5; ++attr) {
        const Coord domain = schema_.attr_domains[attr];
        const Coord lo = static_cast<Coord>(1 + rng.Uniform(domain));
        const Coord hi =
            static_cast<Coord>(lo + rng.Uniform(domain - lo + 1));
        std::optional<Coord> binding;
        std::optional<std::pair<Coord, Coord>> range;
        bool grouped = true;
        switch (rng.Uniform(6)) {
          case 0:  // Absent: aggregated away.
            continue;
          case 1:  // Grouped, open.
            break;
          case 2:  // Grouped band.
            range = std::make_pair(lo, hi);
            break;
          case 3:  // Grouped single-value band: pinned yet in the key.
            range = std::make_pair(lo, lo);
            break;
          case 4:  // Band collapsed out of the output.
            range = std::make_pair(lo, hi);
            grouped = false;
            break;
          default:  // Equality.
            binding = lo;
            grouped = false;
            break;
        }
        query.node_mask |= 1u << attr;
        query.attrs.push_back(attr);
        query.bindings.push_back(binding);
        query.ranges.push_back(range);
        query.grouped.push_back(grouped);
      }
      SCOPED_TRACE(std::string(c.name) + ": " + query.ToString(schema_));
      QueryExecStats stats;
      auto got = c.engine->Execute(query, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      got->SortRows();
      const QueryResult expected = Reference(query, *c.facts);
      EXPECT_TRUE(got->SameRowsAs(expected))
          << "got " << got->rows.size() << " rows, want "
          << expected.rows.size();
      const std::string plan = LastSearchPlan();
      const int run_attrs = LastSearchRunAttrs();
      const bool slice = stats.plan.rfind("cubetree slice ", 0) == 0;
      EXPECT_EQ(plan == "slice", slice) << stats.plan;
      EXPECT_TRUE(plan == "slice" || plan == "stream" ||
                  plan == "reaggregate")
          << plan;
      ASSERT_GE(run_attrs, 0);
      if (!c.run_key_allowed) {
        EXPECT_EQ(run_attrs, 0);
      }
      ++seen[std::string(c.name) + " " + plan +
             (run_attrs > 0 ? " run-keyed" : "")];
    }
  }
  for (const char* shape :
       {"flagged slice", "flagged stream run-keyed",
        "flagged reaggregate run-keyed", "flagged reaggregate",
        "deltas reaggregate", "unflagged reaggregate"}) {
    EXPECT_GT(seen[shape], 0) << shape;
  }
}

// --- Query parser --------------------------------------------------------

TEST(QueryParserTest, ParsesFullQuery) {
  CubeSchema schema = SmallSchema();
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery parsed,
      ParseSliceQuery("SELECT partkey, suppkey, SUM(quantity) FROM sales "
                      "WHERE custkey = 17 GROUP BY partkey, suppkey",
                      schema));
  EXPECT_EQ(parsed.fn, AggFn::kSum);
  EXPECT_EQ(parsed.query.node_mask, 0b111u);
  EXPECT_EQ(parsed.query.attrs, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_FALSE(parsed.query.bindings[0].has_value());
  EXPECT_FALSE(parsed.query.bindings[1].has_value());
  ASSERT_TRUE(parsed.query.bindings[2].has_value());
  EXPECT_EQ(*parsed.query.bindings[2], 17u);
}

TEST(QueryParserTest, ParsesAggregateOnlyQuery) {
  CubeSchema schema = SmallSchema();
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery parsed,
      ParseSliceQuery(
          "select avg(quantity) from sales where partkey = 3 and suppkey = 4",
          schema));
  EXPECT_EQ(parsed.fn, AggFn::kAvg);
  EXPECT_EQ(parsed.query.node_mask, 0b011u);
  EXPECT_EQ(parsed.query.NumBound(), 2u);
}

TEST(QueryParserTest, CountStar) {
  CubeSchema schema = SmallSchema();
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery parsed,
      ParseSliceQuery("SELECT custkey, COUNT(*) FROM f GROUP BY custkey",
                      schema));
  EXPECT_EQ(parsed.fn, AggFn::kCount);
  EXPECT_EQ(parsed.query.node_mask, 0b100u);
}

TEST(QueryParserTest, RejectsMalformedQueries) {
  CubeSchema schema = SmallSchema();
  EXPECT_FALSE(ParseSliceQuery("SELECT FROM x", schema).ok());
  EXPECT_FALSE(ParseSliceQuery("SELECT partkey FROM x GROUP BY partkey",
                               schema)
                   .ok());  // No aggregate.
  EXPECT_FALSE(
      ParseSliceQuery("SELECT nope, SUM(quantity) FROM x GROUP BY nope",
                      schema)
          .ok());  // Unknown attribute.
  EXPECT_FALSE(ParseSliceQuery(
                   "SELECT partkey, SUM(quantity) FROM x GROUP BY suppkey",
                   schema)
                   .ok());  // GROUP BY mismatch.
  EXPECT_FALSE(ParseSliceQuery(
                   "SELECT partkey, SUM(quantity) FROM x "
                   "WHERE partkey = 5 GROUP BY partkey",
                   schema)
                   .ok());  // Attr both grouped and bound.
  EXPECT_FALSE(ParseSliceQuery(
                   "SELECT SUM(price) FROM x WHERE partkey = 1", schema)
                   .ok());  // Wrong measure.
}

TEST(QueryParserTest, ParsesBetween) {
  CubeSchema schema = SmallSchema();
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery parsed,
      ParseSliceQuery("SELECT partkey, SUM(quantity) FROM f "
                      "WHERE custkey BETWEEN 3 AND 9 AND suppkey = 2 "
                      "GROUP BY partkey",
                      schema));
  const SliceQuery& q = parsed.query;
  EXPECT_EQ(q.node_mask, 0b111u);
  // Canonical order: partkey(grouped), suppkey(=2), custkey(range).
  ASSERT_EQ(q.attrs, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_TRUE(q.IsGrouped(0));
  EXPECT_FALSE(q.IsGrouped(1));
  EXPECT_FALSE(q.IsGrouped(2));  // Range attr absent from GROUP BY.
  ASSERT_TRUE(q.bindings[1].has_value());
  EXPECT_EQ(*q.bindings[1], 2u);
  ASSERT_TRUE(q.ranges[2].has_value());
  EXPECT_EQ(q.ranges[2]->first, 3u);
  EXPECT_EQ(q.ranges[2]->second, 9u);
}

TEST(QueryParserTest, BetweenAttrMayAlsoBeGrouped) {
  CubeSchema schema = SmallSchema();
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery parsed,
      ParseSliceQuery("SELECT custkey, SUM(quantity) FROM f "
                      "WHERE custkey BETWEEN 3 AND 9 GROUP BY custkey",
                      schema));
  EXPECT_TRUE(parsed.query.IsGrouped(0));
  ASSERT_TRUE(parsed.query.ranges[0].has_value());
}

TEST(QueryParserTest, KeywordsAreCaseInsensitiveAndWhitespaceTolerant) {
  CubeSchema schema = SmallSchema();
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery parsed,
      ParseSliceQuery("  SeLeCt   PARTKEY ,  sum( quantity )   fRoM x  "
                      "Where  SUPPKEY=4   GrOuP   By PartKey  ",
                      schema));
  EXPECT_EQ(parsed.query.node_mask, 0b011u);
  ASSERT_TRUE(parsed.query.bindings[1].has_value());
  EXPECT_EQ(*parsed.query.bindings[1], 4u);
}

TEST(QueryParserTest, RejectsEmptyBetween) {
  CubeSchema schema = SmallSchema();
  EXPECT_FALSE(ParseSliceQuery(
                   "SELECT SUM(quantity) FROM f WHERE custkey "
                   "BETWEEN 9 AND 3",
                   schema)
                   .ok());
}

TEST(QueryParserTest, RoundTripsThroughToString) {
  CubeSchema schema = SmallSchema();
  SliceQuery q;
  q.node_mask = 0b101;
  q.attrs = {0, 2};
  q.bindings = {std::nullopt, Coord{9}};
  ASSERT_OK_AND_ASSIGN(ParsedQuery parsed,
                       ParseSliceQuery(q.ToString(schema), schema));
  EXPECT_EQ(parsed.query.node_mask, q.node_mask);
  EXPECT_EQ(parsed.query.bindings, q.bindings);
}

}  // namespace
}  // namespace cubetree
