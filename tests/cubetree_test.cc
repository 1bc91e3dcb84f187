#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "cubetree/cubetree.h"
#include "cubetree/forest.h"
#include "cubetree/merge_pack.h"
#include "cubetree/select_mapping.h"
#include "cubetree/view_def.h"
#include "fault/fault_injector.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

CubeSchema PaperSchema() {
  CubeSchema schema;
  schema.attr_names = {"partkey", "suppkey", "custkey"};
  schema.attr_domains = {200, 50, 150};
  return schema;
}

ViewDef MakeView(uint32_t id, std::vector<uint32_t> attrs) {
  ViewDef view;
  view.id = id;
  view.attrs = std::move(attrs);
  return view;
}

TEST(ViewDefTest, ArityMaskAndName) {
  CubeSchema schema = PaperSchema();
  ViewDef v = MakeView(1, {0, 1});
  EXPECT_EQ(v.arity(), 2);
  EXPECT_EQ(v.AttrMask(), 0b011u);
  EXPECT_EQ(v.Name(schema), "V{partkey,suppkey}");
  EXPECT_TRUE(v.Covers(0b001));
  EXPECT_TRUE(v.Covers(0b011));
  EXPECT_FALSE(v.Covers(0b100));
  ViewDef none = MakeView(2, {});
  EXPECT_EQ(none.Name(schema), "V{none}");
  EXPECT_EQ(none.arity(), 0);
}

TEST(ViewDefTest, RecordRoundTrip) {
  Coord coords[3] = {10, 20, 30};
  AggValue agg{-5, 2};
  std::vector<char> buf(ViewRecordBytes(3));
  EncodeViewRecord(buf.data(), coords, 3, agg);
  Coord out[kMaxDims];
  AggValue agg_out;
  DecodeViewRecord(buf.data(), 3, out, &agg_out);
  EXPECT_EQ(out[0], 10u);
  EXPECT_EQ(out[2], 30u);
  EXPECT_EQ(agg_out, agg);
}

TEST(ViewDefTest, RecordCompareUsesPackOrder) {
  // (9, 1) < (1, 2): last attribute is the most significant.
  Coord a[2] = {9, 1};
  Coord b[2] = {1, 2};
  std::vector<char> ra(ViewRecordBytes(2)), rb(ViewRecordBytes(2));
  EncodeViewRecord(ra.data(), a, 2, AggValue{});
  EncodeViewRecord(rb.data(), b, 2, AggValue{});
  EXPECT_LT(ViewRecordCompare(ra.data(), rb.data(), 2), 0);
  EXPECT_GT(ViewRecordCompare(rb.data(), ra.data(), 2), 0);
  EXPECT_EQ(ViewRecordCompare(ra.data(), ra.data(), 2), 0);
}

// --- SelectMapping -------------------------------------------------------

TEST(SelectMappingTest, PaperTable5Allocation) {
  // Views in decreasing selection benefit, as in the paper's Section 3:
  // psc, ps, c, s, p, none.
  std::vector<ViewDef> views = {
      MakeView(100, {0, 1, 2}), MakeView(101, {0, 1}), MakeView(102, {2}),
      MakeView(103, {1}),       MakeView(104, {0}),    MakeView(105, {}),
  };
  ForestPlan plan = SelectMapping(views);
  // Paper Table 5: R1 = {psc, ps, c, none}, R2 = {s}, R3 = {p}.
  ASSERT_EQ(plan.trees.size(), 3u);
  EXPECT_EQ(plan.trees[0].dims, 3u);
  EXPECT_EQ(plan.trees[0].view_ids,
            (std::vector<uint32_t>{100, 101, 102, 105}));
  EXPECT_EQ(plan.trees[1].view_ids, (std::vector<uint32_t>{103}));
  EXPECT_EQ(plan.trees[2].view_ids, (std::vector<uint32_t>{104}));
  EXPECT_EQ(plan.view_to_tree.at(101), 0u);
  EXPECT_EQ(plan.view_to_tree.at(104), 2u);
}

TEST(SelectMappingTest, PaperFigure7Allocation) {
  // The Section 2.4 example: V1..V9 with arities 1,2,4,4,3,1,2,1,2.
  std::vector<ViewDef> views = {
      MakeView(1, {3}),           // V1 {brand}
      MakeView(2, {1, 0}),        // V2 {suppkey, partkey}
      MakeView(3, {3, 1, 2, 6}),  // V3 {brand, suppkey, custkey, month}
      MakeView(4, {0, 1, 2, 5}),  // V4 {partkey, suppkey, custkey, year}
      MakeView(5, {0, 2, 5}),     // V5 {partkey, custkey, year}
      MakeView(6, {2}),           // V6 {custkey}
      MakeView(7, {2, 0}),        // V7 {custkey, partkey}
      MakeView(8, {0}),           // V8 {partkey}
      MakeView(9, {1, 2}),        // V9 {suppkey, custkey}
  };
  ForestPlan plan = SelectMapping(views);
  ASSERT_EQ(plan.trees.size(), 3u);
  // Figure 7: R1{4d} = {V3, V5, V2, V1}, R2{4d} = {V4, V7, V6},
  //           R3{2d} = {V9, V8}.
  EXPECT_EQ(plan.trees[0].dims, 4u);
  EXPECT_EQ(plan.trees[0].view_ids, (std::vector<uint32_t>{3, 5, 2, 1}));
  EXPECT_EQ(plan.trees[1].dims, 4u);
  EXPECT_EQ(plan.trees[1].view_ids, (std::vector<uint32_t>{4, 7, 6}));
  EXPECT_EQ(plan.trees[2].dims, 2u);
  EXPECT_EQ(plan.trees[2].view_ids, (std::vector<uint32_t>{9, 8}));
}

TEST(SelectMappingTest, NoTreeHoldsTwoViewsOfSameArity) {
  std::vector<ViewDef> views;
  for (uint32_t i = 0; i < 12; ++i) {
    std::vector<uint32_t> attrs;
    for (uint32_t a = 0; a <= i % 4; ++a) attrs.push_back(a);
    views.push_back(MakeView(i, std::move(attrs)));
  }
  ForestPlan plan = SelectMapping(views);
  std::map<uint32_t, std::vector<uint32_t>> tree_views;
  for (const ViewDef& v : views) {
    tree_views[plan.view_to_tree.at(v.id)].push_back(v.arity());
  }
  for (auto& [tree, arities] : tree_views) {
    std::sort(arities.begin(), arities.end());
    EXPECT_EQ(std::adjacent_find(arities.begin(), arities.end()),
              arities.end())
        << "tree " << tree << " holds two views of equal arity";
  }
}

TEST(SelectMappingTest, EmptyAndSingle) {
  EXPECT_TRUE(SelectMapping({}).trees.empty());
  ForestPlan plan = SelectMapping({MakeView(5, {0, 1})});
  ASSERT_EQ(plan.trees.size(), 1u);
  EXPECT_EQ(plan.trees[0].dims, 2u);
}

TEST(SelectMappingTest, MinimalTreeCount) {
  // Tree count must equal the largest arity class.
  std::vector<ViewDef> views = {
      MakeView(1, {0}), MakeView(2, {1}), MakeView(3, {2}),
      MakeView(4, {0, 1}), MakeView(5, {0, 1, 2}),
  };
  ForestPlan plan = SelectMapping(views);
  EXPECT_EQ(plan.trees.size(), 3u);  // Three arity-1 views force 3 trees.
}

// --- Forest / provider helpers ------------------------------------------

/// In-memory ViewDataProvider for tests: per-view vectors of (coords, agg),
/// sorted on demand.
class VectorViewProvider : public CubetreeForest::ViewDataProvider {
 public:
  void Add(const ViewDef& view, std::vector<Coord> coords, AggValue agg) {
    auto& rows = data_[view.id];
    std::vector<char> rec(ViewRecordBytes(view.arity()));
    coords.resize(kMaxDims, 0);
    EncodeViewRecord(rec.data(), coords.data(), view.arity(), agg);
    rows.push_back(std::move(rec));
  }

  Result<std::unique_ptr<RecordStream>> OpenViewStream(
      const ViewDef& view) override {
    auto rows = data_[view.id];  // Copy.
    const uint8_t arity = view.arity();
    std::sort(rows.begin(), rows.end(),
              [arity](const std::vector<char>& a, const std::vector<char>& b) {
                return ViewRecordCompare(a.data(), b.data(), arity) < 0;
              });
    std::vector<char> flat;
    for (const auto& r : rows) flat.insert(flat.end(), r.begin(), r.end());
    return std::unique_ptr<RecordStream>(new MemoryRecordStream(
        std::move(flat), ViewRecordBytes(arity)));
  }

 private:
  std::map<uint32_t, std::vector<std::vector<char>>> data_;
};

class ForestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTestDir("forest");
    pool_ = std::make_unique<BufferPool>(256);
  }

  Result<std::unique_ptr<CubetreeForest>> MakeForest() {
    CubetreeForest::Options options;
    options.dir = dir_;
    options.name = "f" + std::to_string(++count_);
    return CubetreeForest::Create(options, pool_.get());
  }

  std::string dir_;
  std::unique_ptr<BufferPool> pool_;
  int count_ = 0;
};

TEST_F(ForestTest, BuildQueryPaperViews) {
  // The paper's running example: V1{partkey,suppkey}, V2{suppkey,custkey},
  // V3{partkey} and the none view.
  std::vector<ViewDef> views = {
      MakeView(1, {0, 1}),
      MakeView(2, {1, 2}),
      MakeView(3, {0}),
      MakeView(4, {}),
  };
  VectorViewProvider provider;
  int64_t total = 0;
  for (uint32_t p = 1; p <= 20; ++p) {
    for (uint32_t s = 1; s <= 5; ++s) {
      provider.Add(views[0], {p, s}, AggValue{int64_t(p * 100 + s), 1});
    }
  }
  for (uint32_t s = 1; s <= 5; ++s) {
    for (uint32_t c = 1; c <= 8; ++c) {
      provider.Add(views[1], {s, c}, AggValue{int64_t(s * 10 + c), 1});
    }
  }
  for (uint32_t p = 1; p <= 20; ++p) {
    provider.Add(views[2], {p}, AggValue{int64_t(p), 1});
    total += p;
  }
  provider.Add(views[3], {}, AggValue{total, 20});

  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  ASSERT_OK(forest->Build(views, &provider));
  // V1 and V2 have the same arity: they must land in different trees.
  EXPECT_EQ(forest->num_trees(), 2u);
  EXPECT_NE(forest->plan().view_to_tree.at(1),
            forest->plan().view_to_tree.at(2));
  EXPECT_EQ(forest->TotalPoints(), 100u + 40u + 20u + 1u);

  // Slice on V1: partkey free, suppkey = 3 (the paper's Q1 shape).
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Cubetree> tree, forest->TreeForView(1));
  std::vector<std::pair<Coord, int64_t>> hits;
  ASSERT_OK(tree->QuerySlice(
      1, {std::nullopt, Coord{3}},
      [&](const Coord* coords, const AggValue& agg) {
        hits.push_back({coords[0], agg.sum});
      }));
  ASSERT_EQ(hits.size(), 20u);
  for (const auto& [p, sum] : hits) {
    EXPECT_EQ(sum, int64_t(p * 100 + 3));
  }

  // The none view is the origin point.
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Cubetree> tree_none, forest->TreeForView(4));
  int none_hits = 0;
  ASSERT_OK(tree_none->QuerySlice(
      4, {},
      [&](const Coord*, const AggValue& agg) {
        EXPECT_EQ(agg.sum, total);
        EXPECT_EQ(agg.count, 20u);
        ++none_hits;
      }));
  EXPECT_EQ(none_hits, 1);
}

TEST_F(ForestTest, SliceRectValidation) {
  std::vector<ViewDef> views = {MakeView(1, {0, 1})};
  VectorViewProvider provider;
  provider.Add(views[0], {1, 1}, AggValue{1, 1});
  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  ASSERT_OK(forest->Build(views, &provider));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Cubetree> tree, forest->TreeForView(1));
  // Wrong binding arity.
  EXPECT_FALSE(tree->SliceRect(1, {std::nullopt}).ok());
  // Unknown view.
  EXPECT_FALSE(tree->SliceRect(99, {}).ok());
  ASSERT_OK_AND_ASSIGN(Rect rect,
                       tree->SliceRect(1, {Coord{5}, std::nullopt}));
  EXPECT_EQ(rect.lo[0], 5u);
  EXPECT_EQ(rect.hi[0], 5u);
  EXPECT_EQ(rect.lo[1], 1u);  // Open dims exclude 0.
  EXPECT_EQ(rect.hi[1], kCoordMax);
}

TEST_F(ForestTest, TreeForUnknownViewFails) {
  std::vector<ViewDef> views = {MakeView(1, {0})};
  VectorViewProvider provider;
  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  ASSERT_OK(forest->Build(views, &provider));
  EXPECT_FALSE(forest->TreeForView(42).ok());
}

TEST_F(ForestTest, DuplicateViewIdRejected) {
  std::vector<ViewDef> views = {MakeView(1, {0}), MakeView(1, {1})};
  VectorViewProvider provider;
  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  EXPECT_FALSE(forest->Build(views, &provider).ok());
}

// --- Merge-pack ----------------------------------------------------------

/// The inputs of one merge, each a VectorPointSource over its points.
std::vector<std::unique_ptr<PointSource>> Sources(
    std::vector<std::vector<PointRecord>> inputs) {
  std::vector<std::unique_ptr<PointSource>> sources;
  for (auto& points : inputs) {
    sources.push_back(std::make_unique<VectorPointSource>(std::move(points)));
  }
  return sources;
}

/// Drains `source`; the first error ends the drain and is returned.
Status Drain(PointSource* source, std::vector<PointRecord>* out) {
  while (true) {
    const PointRecord* rec = nullptr;
    CT_RETURN_NOT_OK(source->Next(&rec));
    if (rec == nullptr) return Status::OK();
    out->push_back(*rec);
  }
}

PointRecord MakePoint(uint32_t view_id, std::vector<Coord> coords,
                      AggValue agg) {
  PointRecord rec;
  rec.view_id = view_id;
  std::copy(coords.begin(), coords.end(), rec.coords);
  rec.agg = agg;
  return rec;
}

TEST(MergePointSourceTest, MergesAndCombines) {
  auto mk = [](uint32_t x, uint32_t y, int64_t sum) {
    return MakePoint(1, {x, y}, AggValue{sum, 1});
  };
  MergePointSource merged(
      Sources({{mk(1, 1, 10), mk(3, 1, 30), mk(1, 2, 100)},
               {mk(2, 1, 20), mk(3, 1, 5), mk(5, 3, 50)}}),
      2);
  std::vector<PointRecord> out;
  ASSERT_OK(Drain(&merged, &out));
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].coords[0], 1u);
  EXPECT_EQ(out[1].coords[0], 2u);
  EXPECT_EQ(out[2].coords[0], 3u);
  EXPECT_EQ(out[2].agg.sum, 35);   // Combined.
  EXPECT_EQ(out[2].agg.count, 2u);
  EXPECT_EQ(out[3].coords[1], 2u);
  EXPECT_EQ(out[4].coords[1], 3u);
}

TEST(MergePointSourceTest, EmptySides) {
  const PointRecord point = MakePoint(1, {7}, AggValue{});
  {
    MergePointSource merged(Sources({{point}, {}}), 1);
    const PointRecord* rec = nullptr;
    ASSERT_OK(merged.Next(&rec));
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->coords[0], 7u);
    ASSERT_OK(merged.Next(&rec));
    EXPECT_EQ(rec, nullptr);
  }
  {
    MergePointSource merged(Sources({{}, {}}), 1);
    const PointRecord* rec = nullptr;
    ASSERT_OK(merged.Next(&rec));
    EXPECT_EQ(rec, nullptr);
  }
}

// 1..6 inputs, every third one empty, the rest interleaving disjoint keys:
// the output is their union in pack order.
TEST(MergePointSourceTest, OneToSixInputsSomeEmpty) {
  for (size_t k = 1; k <= 6; ++k) {
    std::vector<std::vector<PointRecord>> inputs(k);
    size_t expected = 0;
    for (size_t i = 0; i < k; ++i) {
      if (i % 3 == 2) continue;
      for (Coord y = 1; y <= 5; ++y) {
        for (Coord x = 1; x <= 4; ++x) {
          inputs[i].push_back(MakePoint(
              1, {x, static_cast<Coord>(y * k + i)}, AggValue{1, 1}));
          ++expected;
        }
      }
    }
    MergePointSource merged(Sources(std::move(inputs)), 2);
    std::vector<PointRecord> out;
    ASSERT_OK(Drain(&merged, &out));
    ASSERT_EQ(out.size(), expected) << k << " inputs";
    for (size_t n = 1; n < out.size(); ++n) {
      EXPECT_LT(PackOrderCompare(out[n - 1].coords, out[n].coords, 2), 0)
          << k << " inputs, output " << n;
    }
  }
}

// A key present in four of five inputs comes out once, carrying the sum of
// its aggregates; its neighbours pass through untouched.
TEST(MergePointSourceTest, KeyInSeveralInputsIsSummed) {
  const PointRecord before = MakePoint(3, {1, 1, 1}, AggValue{1, 1});
  const PointRecord after = MakePoint(3, {9, 9, 9}, AggValue{2, 1});
  auto shared = [](int64_t sum) {
    return MakePoint(3, {4, 5, 6}, AggValue{sum, 1});
  };
  MergePointSource merged(Sources({{before, shared(10)},
                                   {shared(200)},
                                   {},
                                   {shared(3000), after},
                                   {shared(40000)}}),
                          3);
  std::vector<PointRecord> out;
  ASSERT_OK(Drain(&merged, &out));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].agg, before.agg);
  EXPECT_EQ(out[1].view_id, 3u);
  EXPECT_EQ(out[1].coords[2], 6u);
  EXPECT_EQ(out[1].agg, (AggValue{43210, 4}));
  EXPECT_EQ(out[2].agg, after.agg);
}

// Two views can never share a point of one tree; seeing it means one of
// the inputs is damaged.
TEST(MergePointSourceTest, EqualCoordinatesFromTwoViewsIsCorruption) {
  MergePointSource merged(
      Sources({{MakePoint(1, {2, 2}, AggValue{1, 1})},
               {MakePoint(1, {1, 1}, AggValue{1, 1}),
                MakePoint(2, {2, 2}, AggValue{1, 1})}}),
      2);
  std::vector<PointRecord> out;
  const Status status = Drain(&merged, &out);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_EQ(out.size(), 1u);  // The point before the clash came out.
}

// Random input counts, overlaps and empty inputs against a std::map fold
// keyed in pack order.
TEST(MergePointSourceTest, SeededSweepMatchesMapReference) {
  constexpr uint8_t kDims = 3;
  // Pack order: the last coordinate is the most significant.
  auto pack_key = [](const PointRecord& rec) {
    return std::vector<Coord>{rec.coords[2], rec.coords[1], rec.coords[0]};
  };
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const size_t k = 1 + rng.Uniform(6);
    std::map<std::vector<Coord>, PointRecord> reference;
    std::vector<std::vector<PointRecord>> inputs(k);
    for (size_t i = 0; i < k; ++i) {
      // Unique keys within one input; up to 60 of them, from a small domain
      // so the inputs overlap.
      std::map<std::vector<Coord>, PointRecord> keyed;
      const size_t n = rng.Uniform(61);
      for (size_t p = 0; p < n; ++p) {
        PointRecord rec = MakePoint(
            7,
            {static_cast<Coord>(1 + rng.Uniform(6)),
             static_cast<Coord>(1 + rng.Uniform(4)),
             static_cast<Coord>(1 + rng.Uniform(5))},
            AggValue{static_cast<int64_t>(rng.Uniform(1000)) - 500, 1});
        keyed.emplace(pack_key(rec), rec);
      }
      for (const auto& [key, rec] : keyed) {
        inputs[i].push_back(rec);
        auto [it, fresh] = reference.emplace(key, rec);
        if (!fresh) it->second.agg.Merge(rec.agg);
      }
    }
    MergePointSource merged(Sources(std::move(inputs)), kDims);
    std::vector<PointRecord> out;
    ASSERT_OK(Drain(&merged, &out));
    ASSERT_EQ(out.size(), reference.size()) << "seed " << seed;
    size_t n = 0;
    for (const auto& [key, rec] : reference) {
      EXPECT_EQ(pack_key(out[n]), key) << "seed " << seed << " point " << n;
      EXPECT_EQ(out[n].agg, rec.agg) << "seed " << seed << " point " << n;
      EXPECT_EQ(out[n].view_id, rec.view_id);
      ++n;
    }
  }
}

TEST_F(ForestTest, ApplyDeltaMergePacks) {
  std::vector<ViewDef> views = {MakeView(1, {0, 1}), MakeView(2, {0})};
  VectorViewProvider base;
  for (uint32_t p = 1; p <= 50; ++p) {
    for (uint32_t s = 1; s <= 4; ++s) {
      base.Add(views[0], {p, s}, AggValue{int64_t(p), 1});
    }
    base.Add(views[1], {p}, AggValue{int64_t(4 * p), 4});
  }
  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  ASSERT_OK(forest->Build(views, &base));
  const uint64_t points_before = forest->TotalPoints();

  // Delta: updates to existing groups (p <= 50) and brand-new groups.
  VectorViewProvider delta;
  delta.Add(views[0], {10, 1}, AggValue{1000, 1});
  delta.Add(views[0], {60, 1}, AggValue{600, 1});
  delta.Add(views[1], {10}, AggValue{1000, 1});
  delta.Add(views[1], {60}, AggValue{600, 1});
  ASSERT_OK(forest->ApplyDelta(&delta));
  EXPECT_EQ(forest->TotalPoints(), points_before + 2);

  // Existing group merged.
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Cubetree> tree, forest->TreeForView(1));
  int64_t sum = 0;
  ASSERT_OK(tree->QuerySlice(1, {Coord{10}, Coord{1}},
                             [&](const Coord*, const AggValue& agg) {
                               sum = agg.sum;
                             }));
  EXPECT_EQ(sum, 10 + 1000);
  // New group present.
  int found = 0;
  ASSERT_OK(tree->QuerySlice(1, {Coord{60}, Coord{1}},
                             [&](const Coord*, const AggValue& agg) {
                               EXPECT_EQ(agg.sum, 600);
                               ++found;
                             }));
  EXPECT_EQ(found, 1);
  // Untouched group unchanged.
  ASSERT_OK(tree->QuerySlice(1, {Coord{20}, Coord{2}},
                             [&](const Coord*, const AggValue& agg) {
                               EXPECT_EQ(agg.sum, 20);
                             }));
}

TEST_F(ForestTest, RepeatedDeltasAccumulate) {
  std::vector<ViewDef> views = {MakeView(1, {0})};
  VectorViewProvider base;
  base.Add(views[0], {1}, AggValue{1, 1});
  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  ASSERT_OK(forest->Build(views, &base));
  for (int i = 0; i < 5; ++i) {
    VectorViewProvider delta;
    delta.Add(views[0], {1}, AggValue{10, 1});
    ASSERT_OK(forest->ApplyDelta(&delta));
  }
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Cubetree> tree, forest->TreeForView(1));
  int64_t sum = 0;
  uint32_t count = 0;
  ASSERT_OK(tree->QuerySlice(1, {Coord{1}},
                             [&](const Coord*, const AggValue& agg) {
                               sum = agg.sum;
                               count = agg.count;
                             }));
  EXPECT_EQ(sum, 51);
  EXPECT_EQ(count, 6u);
  EXPECT_EQ(forest->TotalPoints(), 1u);
}

TEST_F(ForestTest, PartialDeltasAnswerLikeMergedDeltas) {
  std::vector<ViewDef> views = {MakeView(1, {0, 1}), MakeView(2, {0})};
  auto make_base = [&](VectorViewProvider* p) {
    for (uint32_t x = 1; x <= 80; ++x) {
      p->Add(views[0], {x, x % 4 + 1}, AggValue{int64_t(x), 1});
      p->Add(views[1], {x}, AggValue{int64_t(x), 1});
    }
  };
  auto make_delta = [&](VectorViewProvider* p, uint32_t shift) {
    p->Add(views[0], {10 + shift, 1}, AggValue{100, 1});
    p->Add(views[0], {200 + shift, 2}, AggValue{7, 1});
    p->Add(views[1], {10 + shift}, AggValue{100, 1});
  };

  // Forest A: two partial (delta-tree) refreshes.
  CubetreeForest::Options options_a;
  options_a.dir = dir_;
  options_a.name = "partial";
  ASSERT_OK_AND_ASSIGN(auto partial,
                       CubetreeForest::Create(options_a, pool_.get()));
  VectorViewProvider base_a;
  make_base(&base_a);
  ASSERT_OK(partial->Build(views, &base_a));
  for (uint32_t k = 0; k < 2; ++k) {
    VectorViewProvider delta;
    make_delta(&delta, k);
    ASSERT_OK(partial->ApplyDeltaPartial(&delta));
  }
  EXPECT_GT(partial->TotalDeltas(), 0u);

  // Forest B: same increments via full merge-packs.
  CubetreeForest::Options options_b;
  options_b.dir = dir_;
  options_b.name = "merged";
  ASSERT_OK_AND_ASSIGN(auto merged,
                       CubetreeForest::Create(options_b, pool_.get()));
  VectorViewProvider base_b;
  make_base(&base_b);
  ASSERT_OK(merged->Build(views, &base_b));
  for (uint32_t k = 0; k < 2; ++k) {
    VectorViewProvider delta;
    make_delta(&delta, k);
    ASSERT_OK(merged->ApplyDelta(&delta));
  }

  // Both forests must agree on every group of both views (the partial
  // forest emits per-tree, so aggregate across emissions).
  auto collect = [&](CubetreeForest* forest, uint32_t view_id,
                     uint8_t arity) {
    std::map<std::vector<Coord>, AggValue> out;
    auto tree_result = forest->TreeForView(view_id);
    EXPECT_TRUE(tree_result.ok());
    std::vector<std::optional<Coord>> open(arity, std::nullopt);
    EXPECT_OK((*tree_result)
                  ->QuerySlice(view_id, open,
                               [&](const Coord* coords,
                                   const AggValue& agg) {
                                 out[std::vector<Coord>(coords,
                                                        coords + arity)]
                                     .Merge(agg);
                               }));
    return out;
  };
  for (const ViewDef& view : views) {
    auto a = collect(partial.get(), view.id, view.arity());
    auto b = collect(merged.get(), view.id, view.arity());
    ASSERT_EQ(a, b) << "view " << view.id;
  }

  // Compaction folds the deltas away and preserves the answers.
  auto before = collect(partial.get(), 1, 2);
  ASSERT_OK(partial->Compact());
  EXPECT_EQ(partial->TotalDeltas(), 0u);
  auto after = collect(partial.get(), 1, 2);
  EXPECT_EQ(before, after);
  for (size_t t = 0; t < partial->num_trees(); ++t) {
    EXPECT_OK(partial->tree(t)->rtree()->Validate());
  }
}

// Regression: Compact() used to read trees_ before taking the refresh
// lock. The unlocked pre-check is gone; the not-built error must still
// surface through ApplyDelta's locked check.
TEST_F(ForestTest, CompactBeforeBuildFails) {
  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  Status status = forest->Compact();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

TEST_F(ForestTest, PartialDeltasSurviveReopen) {
  std::vector<ViewDef> views = {MakeView(1, {0})};
  CubetreeForest::Options options;
  options.dir = dir_;
  options.name = "persist_delta";
  {
    ASSERT_OK_AND_ASSIGN(auto forest,
                         CubetreeForest::Create(options, pool_.get()));
    VectorViewProvider base;
    base.Add(views[0], {1}, AggValue{5, 1});
    ASSERT_OK(forest->Build(views, &base));
    VectorViewProvider delta;
    delta.Add(views[0], {1}, AggValue{10, 1});
    delta.Add(views[0], {2}, AggValue{20, 1});
    ASSERT_OK(forest->ApplyDeltaPartial(&delta));
  }
  ASSERT_OK_AND_ASSIGN(auto forest,
                       CubetreeForest::Open(options, pool_.get()));
  EXPECT_EQ(forest->TotalDeltas(), 1u);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Cubetree> tree, forest->TreeForView(1));
  std::map<Coord, AggValue> got;
  ASSERT_OK(tree->QuerySlice(1, {std::nullopt},
                             [&](const Coord* coords, const AggValue& agg) {
                               got[coords[0]].Merge(agg);
                             }));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], (AggValue{15, 2}));
  EXPECT_EQ(got[2], (AggValue{20, 1}));
}

TEST_F(ForestTest, DeltaBeforeBuildFails) {
  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  VectorViewProvider delta;
  EXPECT_FALSE(forest->ApplyDelta(&delta).ok());
}

TEST_F(ForestTest, ReopenFromManifest) {
  std::vector<ViewDef> views = {MakeView(1, {0, 1}), MakeView(2, {0}),
                                MakeView(3, {})};
  CubetreeForest::Options options;
  options.dir = dir_;
  options.name = "persist";
  VectorViewProvider base;
  for (uint32_t p = 1; p <= 100; ++p) {
    base.Add(views[0], {p, p % 5 + 1}, AggValue{int64_t(p), 1});
    base.Add(views[1], {p}, AggValue{int64_t(p), 1});
  }
  base.Add(views[2], {}, AggValue{5050, 100});
  {
    ASSERT_OK_AND_ASSIGN(auto forest,
                         CubetreeForest::Create(options, pool_.get()));
    ASSERT_OK(forest->Build(views, &base));
  }  // Forest object gone; only the files and the manifest remain.

  ASSERT_OK_AND_ASSIGN(auto forest,
                       CubetreeForest::Open(options, pool_.get()));
  EXPECT_EQ(forest->views().size(), 3u);
  EXPECT_EQ(forest->TotalPoints(), 201u);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Cubetree> tree, forest->TreeForView(1));
  int64_t sum = -1;
  ASSERT_OK(tree->QuerySlice(1, {Coord{42}, Coord{3}},
                             [&](const Coord*, const AggValue& agg) {
                               sum = agg.sum;
                             }));
  EXPECT_EQ(sum, 42);
  ASSERT_OK(tree->rtree()->Validate());

  // Updates persist across another reopen, and generations advance.
  VectorViewProvider delta;
  delta.Add(views[1], {42}, AggValue{1000, 1});
  delta.Add(views[0], {42, 3}, AggValue{1000, 1});
  delta.Add(views[2], {}, AggValue{2000, 2});
  ASSERT_OK(forest->ApplyDelta(&delta));
  {
    ASSERT_OK_AND_ASSIGN(auto reopened,
                         CubetreeForest::Open(options, pool_.get()));
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<Cubetree> t2, reopened->TreeForView(1));
    int64_t sum2 = -1;
    ASSERT_OK(t2->QuerySlice(1, {Coord{42}, Coord{3}},
                             [&](const Coord*, const AggValue& agg) {
                               sum2 = agg.sum;
                             }));
    EXPECT_EQ(sum2, 1042);
  }
}

TEST_F(ForestTest, CorruptManifestRejected) {
  std::vector<ViewDef> views = {MakeView(1, {0})};
  CubetreeForest::Options options;
  options.dir = dir_;
  options.name = "corrupt";
  {
    ASSERT_OK_AND_ASSIGN(auto forest,
                         CubetreeForest::Create(options, pool_.get()));
    VectorViewProvider base;
    base.Add(views[0], {1}, AggValue{1, 1});
    ASSERT_OK(forest->Build(views, &base));
  }
  // Truncate the manifest mid-line.
  const std::string path = dir_ + "/corrupt.manifest";
  ASSERT_EQ(truncate(path.c_str(), 40), 0);
  auto result = CubetreeForest::Open(options, pool_.get());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption())
      << result.status().ToString();
}

TEST_F(ForestTest, BoxRectClampsZeroLowerBound) {
  std::vector<ViewDef> views = {MakeView(1, {0, 1})};
  VectorViewProvider base;
  base.Add(views[0], {1, 1}, AggValue{1, 1});
  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  ASSERT_OK(forest->Build(views, &base));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Cubetree> tree, forest->TreeForView(1));
  // A caller-provided interval starting at 0 must still exclude the zero
  // plane (it belongs to lower-arity views).
  ASSERT_OK_AND_ASSIGN(Rect rect, tree->BoxRect(1, {{0, 10}, {0, 5}}));
  EXPECT_EQ(rect.lo[0], 1u);
  EXPECT_EQ(rect.lo[1], 1u);
  EXPECT_EQ(rect.hi[0], 10u);
}

TEST_F(ForestTest, OpenWithoutManifestFails) {
  CubetreeForest::Options options;
  options.dir = dir_;
  options.name = "missing";
  EXPECT_TRUE(CubetreeForest::Open(options, pool_.get())
                  .status()
                  .IsNotFound());
}

TEST_F(ForestTest, StorageAccounting) {
  std::vector<ViewDef> views = {MakeView(1, {0, 1})};
  VectorViewProvider base;
  for (uint32_t p = 1; p <= 2000; ++p) {
    base.Add(views[0], {p, p % 7 + 1}, AggValue{1, 1});
  }
  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  ASSERT_OK(forest->Build(views, &base));
  EXPECT_GT(forest->TotalSizeBytes(), 0u);
  // Destroy removes all files.
  ASSERT_OK(forest->Destroy());
  EXPECT_EQ(forest->TotalSizeBytes(), 0u);
}

// --- One write path for every generation ---------------------------------

/// Every group a forest stores: (view id, the view's coordinates) -> agg.
using Groups = std::map<std::pair<uint32_t, std::vector<Coord>>, AggValue>;

std::vector<ViewDef> PaperViews() {
  return {MakeView(1, {0, 1}), MakeView(2, {1, 2}), MakeView(3, {0}),
          MakeView(4, {})};
}

/// Adds `rows` random groups per view to `provider` (unique keys within
/// one call, from a domain small enough that successive calls overlap) and
/// folds them into `groups`.
void FillRandom(const std::vector<ViewDef>& views, uint64_t seed, size_t rows,
                VectorViewProvider* provider, Groups* groups) {
  Rng rng(seed);
  for (const ViewDef& view : views) {
    std::map<std::vector<Coord>, AggValue> keyed;
    for (size_t r = 0; r < rows; ++r) {
      std::vector<Coord> key;
      for (size_t a = 0; a < view.arity(); ++a) {
        key.push_back(static_cast<Coord>(1 + rng.Uniform(12)));
      }
      keyed[key].Merge(
          AggValue{static_cast<int64_t>(rng.Uniform(1000)) - 300, 1});
    }
    for (const auto& [key, agg] : keyed) {
      provider->Add(view, key, agg);
      (*groups)[{view.id, key}].Merge(agg);
    }
  }
}

/// What the forest answers for every group of every view, folded across
/// main and delta trees.
Groups Served(CubetreeForest* forest) {
  Groups served;
  for (const ViewDef& view : forest->views()) {
    auto tree = forest->TreeForView(view.id);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    if (!tree.ok()) continue;
    std::vector<std::optional<Coord>> open(view.arity(), std::nullopt);
    EXPECT_OK((*tree)->QuerySlice(
        view.id, open, [&](const Coord* coords, const AggValue& agg) {
          served[{view.id, std::vector<Coord>(coords, coords + view.arity())}]
              .Merge(agg);
        }));
  }
  return served;
}

/// Files of forest `name` in `dir`: trees, sidecars, manifest and draft.
std::set<std::string> ForestFiles(const std::string& dir,
                                  const std::string& name) {
  std::set<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    if (file.starts_with(name + "_") || file.starts_with(name + ".")) {
      files.insert(file);
    }
  }
  return files;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

struct DisarmOnExit {
  ~DisarmOnExit() { FaultInjector::Instance().DisarmAll(); }
};

// A load is a generation transaction: a fault before its commit leaves no
// file behind and the forest as Create left it, so the same call can be
// retried on the same object.
TEST_F(ForestTest, FailedBuildLeavesNoFilesAndCanBeRetried) {
  const std::vector<ViewDef> views = PaperViews();
  VectorViewProvider base;
  Groups expected;
  FillRandom(views, /*seed=*/5, /*rows=*/150, &base, &expected);
  struct Fault {
    const char* point;
    const char* action;
    bool (Status::*typed)() const;
  };
  DisarmOnExit disarm;
  for (const Fault& fault : {Fault{"rtree.build.sync", "enospc",
                                   &Status::IsStorageFull},
                             Fault{"forest.refresh.build", "error",
                                   &Status::IsIOError}}) {
    SCOPED_TRACE(fault.point);
    ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
    const std::string name = "f" + std::to_string(count_);
    ASSERT_OK(FaultInjector::Instance().Arm(fault.point, fault.action));
    const Status failed = forest->Build(views, &base);
    FaultInjector::Instance().DisarmAll();
    EXPECT_TRUE((failed.*fault.typed)()) << failed.ToString();
    EXPECT_EQ(ForestFiles(dir_, name), std::set<std::string>{});
    EXPECT_EQ(forest->num_trees(), 0u);
    EXPECT_TRUE(forest->views().empty());
    EXPECT_TRUE(forest->plan().trees.empty());
    EXPECT_FALSE(forest->view(1).ok());
    EXPECT_FALSE(forest->AcquireSnapshot().valid());

    ASSERT_OK(forest->Build(views, &base));
    EXPECT_EQ(forest->num_trees(), 2u);
    EXPECT_EQ(Served(forest.get()), expected);
  }
}

// Every main and delta tree a load or refresh writes is byte for byte the
// bulk build of its brute-force contents: the k-way merge adds nothing a
// from-scratch pack would not write.
TEST_F(ForestTest, RefreshedTreeEqualsBulkBuildOfItsContents) {
  const std::vector<ViewDef> views = PaperViews();
  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  Groups main;                  // What the main trees hold.
  std::vector<Groups> pending;  // One increment per pending delta tree.
  uint64_t seed = 100;

  // `groups` restricted to tree `t`, packed by Build at `path`.
  auto bulk_build = [&](const Groups& groups, size_t t,
                        const std::string& path) -> Status {
    const uint8_t dims = forest->plan().trees[t].dims;
    std::vector<PointRecord> points;
    for (const auto& [key, agg] : groups) {
      if (forest->plan().view_to_tree.at(key.first) != t) continue;
      points.push_back(MakePoint(key.first, key.second, agg));
    }
    std::sort(points.begin(), points.end(),
              [dims](const PointRecord& a, const PointRecord& b) {
                return PackOrderCompare(a.coords, b.coords, dims) < 0;
              });
    RTreeOptions options;
    options.dims = dims;
    VectorPointSource source(std::move(points));
    CT_ASSIGN_OR_RETURN(
        auto built,
        PackedRTree::Build(path, options, pool_.get(), &source,
                           [&](uint32_t view_id) {
                             return forest->view(view_id).value()->arity();
                           }));
    return Status::OK();
  };
  auto expect_same_file = [&](const std::string& live, const Groups& groups,
                              size_t t) {
    const std::string reference = dir_ + "/reference.ctr";
    ASSERT_OK(bulk_build(groups, t, reference));
    EXPECT_EQ(ReadBytes(live), ReadBytes(reference)) << live;
    EXPECT_EQ(ReadBytes(ChecksumSidecarPath(live)),
              ReadBytes(ChecksumSidecarPath(reference)))
        << live;
  };
  auto check = [&](const std::string& step) {
    SCOPED_TRACE(step);
    ASSERT_EQ(forest->num_trees(), 2u);
    for (size_t t = 0; t < forest->num_trees(); ++t) {
      std::shared_ptr<Cubetree> tree = forest->tree(t);
      expect_same_file(tree->rtree()->path(), main, t);
      // A delta tree is dropped when its increment has nothing for this
      // tree's views.
      size_t d = 0;
      for (const Groups& increment : pending) {
        const bool touches = std::any_of(
            increment.begin(), increment.end(), [&](const auto& group) {
              return forest->plan().view_to_tree.at(group.first.first) == t;
            });
        if (!touches) continue;
        ASSERT_LT(d, tree->num_deltas());
        expect_same_file(tree->shared_deltas()[d]->path(), increment, t);
        ++d;
      }
      EXPECT_EQ(d, tree->num_deltas());
    }
    Groups all = main;
    for (const Groups& increment : pending) {
      for (const auto& [key, agg] : increment) all[key].Merge(agg);
    }
    EXPECT_EQ(Served(forest.get()), all);
  };
  auto partial = [&] {
    VectorViewProvider input;
    pending.emplace_back();
    FillRandom(views, ++seed, /*rows=*/40, &input, &pending.back());
    return forest->ApplyDeltaPartial(&input);
  };
  auto fold_pending = [&] {
    for (const Groups& increment : pending) {
      for (const auto& [key, agg] : increment) main[key].Merge(agg);
    }
    pending.clear();
  };

  VectorViewProvider base;
  FillRandom(views, ++seed, /*rows=*/400, &base, &main);
  ASSERT_OK(forest->Build(views, &base));
  check("Build");
  for (int k = 1; k <= 3; ++k) {
    ASSERT_OK(partial());
    check("ApplyDeltaPartial " + std::to_string(k));
  }
  VectorViewProvider delta;
  FillRandom(views, ++seed, /*rows=*/120, &delta, &main);
  ASSERT_OK(forest->ApplyDelta(&delta));
  fold_pending();
  check("ApplyDelta over 3 pending deltas");
  // One more pending delta, so the compaction has something to fold.
  ASSERT_OK(partial());
  check("ApplyDeltaPartial 4");
  ASSERT_OK(forest->Compact());
  fold_pending();
  check("Compact");
}

}  // namespace
}  // namespace cubetree
