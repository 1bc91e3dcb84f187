// Parameterized property tests: randomized workloads checked against
// reference implementations, swept across structural parameters
// (dimensionality, fill factors, memory budgets, key widths).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "btree/btree.h"
#include "common/coding.h"
#include "common/rng.h"
#include "cubetree/merge_pack.h"
#include "cubetree/select_mapping.h"
#include "rtree/packed_rtree.h"
#include "sort/external_sorter.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

// --- Packed R-tree: (dims, points, leaf_fill, compress) sweep ------------

using RTreeParam = std::tuple<int, int, double, bool>;

class PackedRTreeProperty : public ::testing::TestWithParam<RTreeParam> {};

TEST_P(PackedRTreeProperty, RangeQueriesMatchBruteForce) {
  const auto [dims, n, leaf_fill, compress] = GetParam();
  const std::string dir = MakeTestDir(
      "rtprop_" + std::to_string(dims) + "_" + std::to_string(n) + "_" +
      std::to_string(static_cast<int>(leaf_fill * 100)) +
      (compress ? "_c" : "_u"));

  // Random unique points of a single view with full arity. The per-axis
  // domain must comfortably exceed n^(1/dims) or unique draws run dry.
  Rng rng(dims * 1000 + n);
  const uint64_t domain =
      dims == 1 ? static_cast<uint64_t>(n) * 4 : (dims == 2 ? 400 : 200);
  std::set<std::vector<Coord>> seen;
  std::vector<PointRecord> points;
  while (points.size() < static_cast<size_t>(n)) {
    PointRecord rec;
    rec.view_id = 1;
    std::vector<Coord> key;
    for (int d = 0; d < dims; ++d) {
      rec.coords[d] = static_cast<Coord>(1 + rng.Uniform(domain));
      key.push_back(rec.coords[d]);
    }
    if (!seen.insert(key).second) continue;
    rec.agg = AggValue{static_cast<int64_t>(rng.Uniform(1000)), 1};
    points.push_back(rec);
  }
  std::sort(points.begin(), points.end(),
            [&](const PointRecord& a, const PointRecord& b) {
              return PackOrderCompare(a.coords, b.coords, dims) < 0;
            });

  BufferPool pool(128);
  RTreeOptions options;
  options.dims = static_cast<uint8_t>(dims);
  options.leaf_fill = leaf_fill;
  options.compress_leaves = compress;
  VectorPointSource source(points);
  ASSERT_OK_AND_ASSIGN(
      auto tree,
      PackedRTree::Build(dir + "/t.ctr", options, &pool, &source,
                         [dims](uint32_t) {
                           return static_cast<uint8_t>(dims);
                         }));
  ASSERT_EQ(tree->num_points(), points.size());

  // 25 random boxes: tree results must equal brute force exactly.
  for (int q = 0; q < 25; ++q) {
    Rect query;
    for (int d = 0; d < dims; ++d) {
      Coord a = static_cast<Coord>(1 + rng.Uniform(domain));
      Coord b = static_cast<Coord>(1 + rng.Uniform(domain));
      query.lo[d] = std::min(a, b);
      query.hi[d] = std::max(a, b);
    }
    int64_t expected_sum = 0;
    uint64_t expected_count = 0;
    for (const PointRecord& rec : points) {
      if (query.ContainsPoint(rec.coords, dims)) {
        expected_sum += rec.agg.sum;
        ++expected_count;
      }
    }
    int64_t sum = 0;
    uint64_t count = 0;
    ASSERT_OK(tree->Search(query, [&](const PointRecord& rec) {
      sum += rec.agg.sum;
      ++count;
    }));
    ASSERT_EQ(count, expected_count) << "query " << q;
    ASSERT_EQ(sum, expected_sum) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackedRTreeProperty,
    // Dims 5..7 come last so the earlier instances keep their indices.
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8, 5, 6, 7),
                       ::testing::Values(500, 5000),
                       ::testing::Values(0.5, 1.0),
                       ::testing::Bool()));

// --- External sorter: (record_size, budget) sweep ------------------------

using SorterParam = std::tuple<int, int>;

class SorterProperty : public ::testing::TestWithParam<SorterParam> {};

TEST_P(SorterProperty, SortsRandomInput) {
  const auto [record_size, budget] = GetParam();
  const std::string dir = MakeTestDir("sortprop_" +
                                      std::to_string(record_size) + "_" +
                                      std::to_string(budget));
  ExternalSorter::Options options;
  options.record_size = record_size;
  options.memory_budget_bytes = budget;
  options.temp_dir = dir;
  ExternalSorter sorter(options, [](const char* a, const char* b) {
    return DecodeFixed32(a) < DecodeFixed32(b);
  });
  Rng rng(record_size * 31 + budget);
  std::vector<uint32_t> keys;
  std::vector<char> record(record_size, 0);
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const uint32_t key = static_cast<uint32_t>(rng.Uniform(1u << 24));
    keys.push_back(key);
    EncodeFixed32(record.data(), key);
    // Payload derived from the key, to verify records stay intact.
    if (record_size >= 8) {
      EncodeFixed32(record.data() + record_size - 4, key ^ 0xABCD);
    }
    ASSERT_OK(sorter.Add(record.data()));
  }
  ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
  std::sort(keys.begin(), keys.end());
  const char* out = nullptr;
  for (int i = 0; i < n; ++i) {
    ASSERT_OK(stream->Next(&out));
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(DecodeFixed32(out), keys[i]) << i;
    if (record_size >= 8) {
      ASSERT_EQ(DecodeFixed32(out + record_size - 4), keys[i] ^ 0xABCD);
    }
  }
  ASSERT_OK(stream->Next(&out));
  EXPECT_EQ(out, nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SorterProperty,
    ::testing::Combine(::testing::Values(4, 8, 24, 100),
                       ::testing::Values(128, 4096, 1 << 20)));

// --- B+-tree: key_parts sweep against std::map ---------------------------

class BTreeProperty : public ::testing::TestWithParam<int> {};

TEST_P(BTreeProperty, RandomOpsMatchReference) {
  const int key_parts = GetParam();
  const std::string dir = MakeTestDir("btprop_" + std::to_string(key_parts));
  BufferPool pool(64);
  BTreeOptions options;
  options.key_parts = static_cast<uint8_t>(key_parts);
  options.value_size = 8;
  ASSERT_OK_AND_ASSIGN(auto tree, BPlusTree::Create(dir + "/t.idx", options,
                                                    &pool));
  Rng rng(key_parts * 7);
  std::map<std::vector<uint32_t>, uint64_t> reference;
  char value[8];
  char out[8];
  for (int op = 0; op < 8000; ++op) {
    std::vector<uint32_t> key(key_parts);
    for (int i = 0; i < key_parts; ++i) {
      key[i] = static_cast<uint32_t>(rng.Uniform(16));
    }
    const int kind = static_cast<int>(rng.Uniform(3));
    if (kind == 0) {  // Insert.
      const uint64_t v = rng.Next();
      EncodeFixed64(value, v);
      Status st = tree->Insert(key.data(), value);
      if (reference.count(key)) {
        ASSERT_EQ(st.code(), StatusCode::kAlreadyExists);
      } else {
        ASSERT_TRUE(st.ok()) << st.ToString();
        reference[key] = v;
      }
    } else if (kind == 1) {  // Lookup.
      ASSERT_OK_AND_ASSIGN(bool found, tree->Lookup(key.data(), out));
      ASSERT_EQ(found, reference.count(key) > 0);
      if (found) {
        ASSERT_EQ(DecodeFixed64(out), reference[key]);
      }
    } else {  // Update.
      const uint64_t v = rng.Next();
      EncodeFixed64(value, v);
      Status st = tree->Update(key.data(), value);
      if (reference.count(key)) {
        ASSERT_TRUE(st.ok());
        reference[key] = v;
      } else {
        ASSERT_TRUE(st.IsNotFound());
      }
    }
  }
  ASSERT_EQ(tree->num_entries(), reference.size());
  // Full scan equals the reference in order.
  std::vector<uint32_t> low(key_parts, 0), high(key_parts, 0xFFFFFFFFu);
  BPlusTree::Iterator it = tree->Scan(low.data(), high.data());
  auto expect = reference.begin();
  while (true) {
    const uint32_t* key = nullptr;
    const char* val = nullptr;
    ASSERT_OK(it.Next(&key, &val));
    if (key == nullptr) break;
    ASSERT_NE(expect, reference.end());
    ASSERT_TRUE(std::equal(key, key + key_parts, expect->first.begin()));
    ASSERT_EQ(DecodeFixed64(val), expect->second);
    ++expect;
  }
  ASSERT_EQ(expect, reference.end());
}

INSTANTIATE_TEST_SUITE_P(Sweep, BTreeProperty,
                         ::testing::Values(1, 2, 3, 4, 8));

// --- Merge-pack: repeated random deltas against a reference map ----------

class MergePackProperty : public ::testing::TestWithParam<int> {};

TEST_P(MergePackProperty, RepeatedDeltasConverge) {
  const int dims = GetParam();
  const std::string dir = MakeTestDir("mpprop_" + std::to_string(dims));
  BufferPool pool(64);
  RTreeOptions options;
  options.dims = static_cast<uint8_t>(dims);

  Rng rng(dims * 13);
  std::map<std::vector<Coord>, AggValue> reference;
  std::unique_ptr<PackedRTree> tree;
  auto arity_fn = [dims](uint32_t) { return static_cast<uint8_t>(dims); };

  for (int round = 0; round < 6; ++round) {
    // Random delta (unique keys within the delta, overlapping across
    // rounds).
    std::map<std::vector<Coord>, AggValue> delta;
    for (int i = 0; i < 400; ++i) {
      std::vector<Coord> key(dims);
      for (int d = 0; d < dims; ++d) {
        key[d] = static_cast<Coord>(1 + rng.Uniform(30));
      }
      AggValue agg{static_cast<int64_t>(rng.Uniform(100)), 1};
      delta[key].Merge(agg);
    }
    std::vector<PointRecord> delta_points;
    for (const auto& [key, agg] : delta) {
      PointRecord rec;
      rec.view_id = 1;
      for (int d = 0; d < dims; ++d) rec.coords[d] = key[d];
      rec.agg = agg;
      delta_points.push_back(rec);
      reference[key].Merge(agg);
    }
    std::sort(delta_points.begin(), delta_points.end(),
              [&](const PointRecord& a, const PointRecord& b) {
                return PackOrderCompare(a.coords, b.coords, dims) < 0;
              });
    const std::string path =
        dir + "/t_g" + std::to_string(round) + ".ctr";
    std::unique_ptr<PackedRTree> merged;
    {
      // The forest's merge-pack: the old tree (none in round 0) and the
      // delta through one MergePointSource into Build. The scanner goes
      // before the old tree does.
      std::vector<std::unique_ptr<PointSource>> inputs;
      if (tree != nullptr) {
        inputs.push_back(std::make_unique<PackedRTree::Scanner>(tree.get()));
      }
      inputs.push_back(
          std::make_unique<VectorPointSource>(std::move(delta_points)));
      MergePointSource merged_source(std::move(inputs), options.dims);
      ASSERT_OK_AND_ASSIGN(merged, PackedRTree::Build(path, options, &pool,
                                                      &merged_source,
                                                      arity_fn));
    }
    tree = std::move(merged);
    ASSERT_EQ(tree->num_points(), reference.size()) << "round " << round;
  }

  // Final content equals the reference exactly.
  auto scanner = tree->ScanAll();
  size_t count = 0;
  while (true) {
    const PointRecord* rec = nullptr;
    ASSERT_OK(scanner.Next(&rec));
    if (rec == nullptr) break;
    std::vector<Coord> key(rec->coords, rec->coords + dims);
    auto it = reference.find(key);
    ASSERT_NE(it, reference.end());
    ASSERT_EQ(rec->agg, it->second);
    ++count;
  }
  ASSERT_EQ(count, reference.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, MergePackProperty,
                         ::testing::Values(1, 2, 3, 5));

// --- SelectMapping invariants over random view sets ----------------------

class SelectMappingProperty : public ::testing::TestWithParam<int> {};

TEST_P(SelectMappingProperty, InvariantsHoldOnRandomViewSets) {
  const int seed = GetParam();
  Rng rng(seed);
  const size_t num_views = 1 + rng.Uniform(20);
  std::vector<ViewDef> views;
  std::vector<size_t> arity_histogram(kMaxDims + 1, 0);
  for (size_t i = 0; i < num_views; ++i) {
    ViewDef v;
    v.id = static_cast<uint32_t>(i);
    const size_t arity = rng.Uniform(kMaxDims + 1);
    for (size_t a = 0; a < arity; ++a) {
      v.attrs.push_back(static_cast<uint32_t>(a));
    }
    ++arity_histogram[arity];
    views.push_back(std::move(v));
  }
  ForestPlan plan = SelectMapping(views);

  // 1. Every view is placed exactly once.
  ASSERT_EQ(plan.view_to_tree.size(), views.size());
  size_t placed = 0;
  for (const auto& tree : plan.trees) placed += tree.view_ids.size();
  ASSERT_EQ(placed, views.size());

  // 2. Minimality: tree count equals the largest arity class.
  const size_t max_class =
      *std::max_element(arity_histogram.begin(), arity_histogram.end());
  ASSERT_EQ(plan.trees.size(), max_class);

  // 3. No tree holds two views of the same arity, and each tree's dims is
  //    the max arity of its views (at least 1).
  for (const auto& tree : plan.trees) {
    std::set<uint8_t> arities;
    uint8_t max_arity = 0;
    for (uint32_t vid : tree.view_ids) {
      const ViewDef& v = views[vid];
      ASSERT_TRUE(arities.insert(v.arity()).second);
      max_arity = std::max(max_arity, v.arity());
    }
    ASSERT_EQ(tree.dims, std::max<uint8_t>(1, max_arity));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SelectMappingProperty,
                         ::testing::Range(1, 25));

}  // namespace
}  // namespace cubetree
