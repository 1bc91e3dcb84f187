#ifndef CUBETREE_RTREE_PACKED_RTREE_H_
#define CUBETREE_RTREE_PACKED_RTREE_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/parallel_for.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/trace.h"
#include "rtree/geometry.h"
#include "storage/buffer_pool.h"
#include "storage/page_manager.h"

namespace cubetree {

/// Build/search options of one packed R-tree file.
struct RTreeOptions {
  /// Dimensionality of the index space (1..kMaxDims).
  uint8_t dims = 3;
  /// Leaf fill fraction; 1.0 = packed to capacity (the paper's setting).
  double leaf_fill = 1.0;
  /// Internal-node fill fraction.
  double internal_fill = 1.0;
  /// Hard caps on entries per node (0 = page capacity). Used by tests and
  /// the paper-example program to reproduce the small fan-out figures.
  uint16_t max_leaf_entries = 0;
  uint16_t max_internal_entries = 0;
  /// Suppress implicit-zero coordinates on leaves (the paper's compression).
  /// Off stores full-width entries — kept as an ablation switch.
  bool compress_leaves = true;
  /// Verify at build time that the input arrives in strict pack order.
  /// Disable ONLY to bulk-load an alternative sort order (e.g. the Z-order
  /// ablation); such a tree still answers box queries correctly, but view
  /// runs are no longer contiguous and merge-pack no longer applies.
  /// The setting is persisted in the meta page: only a tree built with it
  /// on takes the sorted search window (see PackedRTree::Search), and Open
  /// restores it from the file.
  bool enforce_pack_order = true;
};

/// Pull stream of points in pack order; the input to bulk loading.
class PointSource {
 public:
  virtual ~PointSource() = default;
  /// Sets *record to the next point or nullptr at end.
  virtual Status Next(const PointRecord** record) = 0;
};

/// PointSource over an in-memory vector (used by tests and small builds).
class VectorPointSource : public PointSource {
 public:
  explicit VectorPointSource(std::vector<PointRecord> points)
      : points_(std::move(points)) {}

  Status Next(const PointRecord** record) override {
    if (pos_ >= points_.size()) {
      *record = nullptr;
      return Status::OK();
    }
    *record = &points_[pos_++];
    return Status::OK();
  }

 private:
  std::vector<PointRecord> points_;
  size_t pos_ = 0;
};

/// Counters for one Search call.
struct SearchStats {
  uint64_t internal_pages = 0;
  uint64_t leaf_pages = 0;
  /// Leaf entries inside the scanned leaves' search windows (entries the
  /// window skips by binary search are not counted).
  uint64_t points_examined = 0;
  uint64_t points_emitted = 0;
};

/// A packed, compressed R-tree: the physical half of a Cubetree.
///
/// The tree is immutable once built. Bulk loading consumes points sorted in
/// pack order (PackOrderCompare) and writes the file strictly sequentially:
/// leaves first, then each internal level bottom-up, root last, finally the
/// metadata page (page 0). Each leaf holds points of exactly one view, so
/// leaves store only the view's arity coordinates per entry (zero
/// suppression). Updates are performed by merge-packing into a new file (see
/// cubetree/merge_pack.h) — there is no in-place insert, by design.
class PackedRTree {
 public:
  /// Bulk-builds a tree at `path` from `source` (sorted in pack order; view
  /// boundaries must be respected by the order, which SelectMapping
  /// guarantees). `view_arity(view_id)`, asked once per leaf, gives each
  /// view's number of significant coordinates. A non-null `cancel` is
  /// polled per leaf flush; once set, Build stops with Cancelled.
  static Result<std::unique_ptr<PackedRTree>> Build(
      const std::string& path, const RTreeOptions& options, BufferPool* pool,
      PointSource* source, std::function<uint8_t(uint32_t)> view_arity,
      std::shared_ptr<IoStats> io_stats = nullptr,
      const CancelFlag* cancel = nullptr);

  /// Opens an existing tree file.
  static Result<std::unique_ptr<PackedRTree>> Open(
      const std::string& path, BufferPool* pool,
      std::shared_ptr<IoStats> io_stats = nullptr);

  ~PackedRTree();

  PackedRTree(const PackedRTree&) = delete;
  PackedRTree& operator=(const PackedRTree&) = delete;

  /// Emits every point contained in `query` (over the first dims()
  /// coordinates) by calling `emit(const PointRecord&)`, in pack order.
  /// Points carry their view_id; callers typically restrict the query rect
  /// so only one view's region matches.
  ///
  /// On a pack-ordered tree (pack_ordered()) every node visited is cut to
  /// a window by binary search on its pack-major coordinate: internal
  /// nodes on lo/hi[dims-1], a leaf of arity a > 0 on coordinate a-1.
  /// Other trees scan each node from entry 0. Both read the same pages.
  template <typename Emit>
  Status Search(const Rect& query, Emit&& emit, SearchStats* stats = nullptr);

  /// Sequential pack-order scan over all points: the "old Cubetree" input
  /// of the merge-pack of Figure 15. Reads leaf pages directly (sequential
  /// I/O, bypassing the pool). The tree must outlive the scanner.
  class Scanner : public PointSource {
   public:
    explicit Scanner(PackedRTree* tree) : tree_(tree) {}

    Status Next(const PointRecord** record) override;

   private:
    PackedRTree* tree_;
    Page page_;
    PageId next_page_ = 1;  // Leaves start right after the meta page.
    uint16_t slot_ = 0;
    uint16_t count_ = 0;
    uint8_t arity_ = 0;
    uint32_t view_id_ = 0;
    bool loaded_ = false;
    PointRecord record_;
  };

  Scanner ScanAll() { return Scanner(this); }

  /// Structural self-check: verifies that every internal entry's MBR
  /// contains its child's actual bounding box, that leaf points are in
  /// strict pack order globally, that each leaf holds a single view, and
  /// that the point count matches the metadata. O(file size); intended
  /// for tests and offline fsck-style tooling.
  Status Validate();

  uint8_t dims() const { return options_.dims; }
  /// True when the meta page records a build-time pack-order guarantee.
  bool pack_ordered() const { return options_.enforce_pack_order; }
  uint64_t num_points() const { return num_points_; }
  uint32_t height() const { return height_; }
  PageId num_leaf_pages() const { return num_leaf_pages_; }
  uint64_t FileSizeBytes() const { return file_->FileSizeBytes(); }
  const std::string& path() const { return file_->path(); }
  const RTreeOptions& tree_options() const { return options_; }
  /// True when every page read of this tree is checksum-verified (the
  /// `.crc` sidecar was written at build time or loaded at open).
  bool checksums_enabled() const { return file_->checksums_enabled(); }

 private:
  PackedRTree(std::unique_ptr<PageManager> file, RTreeOptions options,
              BufferPool* pool);

  /// The part of one fetched leaf a search must test: entries
  /// [begin, end) from `entries`, each with `arity` stored coordinates.
  /// The handle keeps the page pinned meanwhile.
  struct LeafWindow {
    PageHandle handle;
    const char* entries = nullptr;
    uint8_t arity = 0;
    uint16_t begin = 0;
    uint16_t end = 0;
  };

  /// Search runs in two phases so traces show honest "descent" and "scan"
  /// costs. Descent walks internal pages only, collecting qualifying leaf
  /// page ids in DFS entry order (the layout invariant — leaves occupy
  /// pages 1..num_leaf_pages_ — lets a child be classified without
  /// fetching it); the scan phase then fetches each collected leaf and
  /// emits its matching points. Emission order matches the old interleaved
  /// recursion exactly, because every internal node's children live on one
  /// level (bottom-up packing), so no node mixes leaf and internal
  /// children.
  Status Descend(const Rect& query, std::vector<PageId>* leaves,
                 SearchStats* stats);
  Status CollectLeaves(PageId node, const Rect& query,
                       std::vector<PageId>* leaves, SearchStats* stats);
  /// Fetches `leaf`, resets `rec` for it (view id, zeroed coordinates from
  /// the leaf's arity up) and sets `*window` to the entries left to test.
  /// The implicitly-zero coordinates are tested here, once per leaf.
  Status OpenLeaf(PageId leaf, const Rect& query, PointRecord* rec,
                  LeafWindow* window, SearchStats* stats);
  /// Tests the window's entries against `query` and emits the matches.
  /// The arity is a template argument, so the coordinate copy is of fixed
  /// size and the containment test unrolls: Search instantiates this one
  /// loop per leaf arity and switches on the window's arity once per leaf.
  template <size_t Arity, typename Emit>
  static void ScanLeaf(const Rect& query, const LeafWindow& window,
                       PointRecord* rec, Emit& emit, SearchStats* stats);

  std::unique_ptr<PageManager> file_;
  RTreeOptions options_;
  BufferPool* pool_;
  PageId root_ = kInvalidPageId;
  uint32_t height_ = 0;
  uint64_t num_points_ = 0;
  PageId num_leaf_pages_ = 0;
};

template <typename Emit>
Status PackedRTree::Search(const Rect& query, Emit&& emit,
                           SearchStats* stats) {
  if (root_ == kInvalidPageId) return Status::OK();
  SearchStats local;
  SearchStats* s = stats != nullptr ? stats : &local;
  std::vector<PageId> leaves;
  CT_RETURN_NOT_OK(Descend(query, &leaves, s));
  obs::Span scan("rtree.scan");
  PointRecord rec;
  LeafWindow window;
  static_assert(kMaxDims == 8, "one ScanLeaf case per leaf arity 0..kMaxDims");
  for (PageId leaf : leaves) {
    CT_RETURN_NOT_OK(OpenLeaf(leaf, query, &rec, &window, s));
    // Open and OpenLeaf bound the arity by dims() <= kMaxDims; the switch
    // only picks the instantiation of the one scan loop.
    switch (window.arity) {
      case 0: ScanLeaf<0>(query, window, &rec, emit, s); break;
      case 1: ScanLeaf<1>(query, window, &rec, emit, s); break;
      case 2: ScanLeaf<2>(query, window, &rec, emit, s); break;
      case 3: ScanLeaf<3>(query, window, &rec, emit, s); break;
      case 4: ScanLeaf<4>(query, window, &rec, emit, s); break;
      case 5: ScanLeaf<5>(query, window, &rec, emit, s); break;
      case 6: ScanLeaf<6>(query, window, &rec, emit, s); break;
      case 7: ScanLeaf<7>(query, window, &rec, emit, s); break;
      case 8: ScanLeaf<8>(query, window, &rec, emit, s); break;
      default:
        return Status::Corruption("rtree: leaf arity above kMaxDims in " +
                                  path());
    }
  }
  if (scan.active()) {
    scan.Annotate("leaf_pages", s->leaf_pages);
    scan.Annotate("points_examined", s->points_examined);
    scan.Annotate("points_emitted", s->points_emitted);
  }
  return Status::OK();
}

template <size_t Arity, typename Emit>
void PackedRTree::ScanLeaf(const Rect& query, const LeafWindow& window,
                           PointRecord* rec, Emit& emit, SearchStats* stats) {
  constexpr size_t kCoordBytes = Arity * sizeof(Coord);
  constexpr size_t kEntryBytes = kCoordBytes + kAggValueBytes;
  for (uint16_t i = window.begin; i < window.end; ++i) {
    const char* entry = window.entries + i * kEntryBytes;
    std::memcpy(rec->coords, entry, kCoordBytes);
    if (!query.ContainsPointFixed<Arity>(rec->coords)) continue;
    rec->agg.sum = static_cast<int64_t>(DecodeFixed64(entry + kCoordBytes));
    rec->agg.count = DecodeFixed32(entry + kCoordBytes + 8);
    ++stats->points_emitted;
    emit(static_cast<const PointRecord&>(*rec));
  }
}

}  // namespace cubetree

#endif  // CUBETREE_RTREE_PACKED_RTREE_H_
