#ifndef CUBETREE_CUBETREE_MERGE_PACK_H_
#define CUBETREE_CUBETREE_MERGE_PACK_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "rtree/packed_rtree.h"

namespace cubetree {

/// Merges k pack-ordered point sources into one, combining the aggregate
/// payloads of points with identical coordinates (which, by the Cubetree
/// organization, always belong to the same view; a clash of views is
/// Corruption). This is the heart of the paper's bulk-incremental update:
/// old tree ∪ pending delta trees ∪ sorted increment in one linear pass,
/// which PackedRTree::Build packs straight into a new file.
class MergePointSource : public PointSource {
 public:
  /// Takes ownership of `inputs`, each strictly ascending in pack order
  /// (any may be empty); `dims` is the enclosing tree's dimensionality.
  MergePointSource(std::vector<std::unique_ptr<PointSource>> inputs,
                   uint8_t dims)
      : inputs_(std::move(inputs)), heads_(inputs_.size()), dims_(dims) {}

  Status Next(const PointRecord** record) override;

 private:
  std::vector<std::unique_ptr<PointSource>> inputs_;
  /// Per input: its current point, nullptr once exhausted.
  std::vector<const PointRecord*> heads_;
  /// Scratch: the inputs whose heads equal the smallest head.
  std::vector<size_t> ties_;
  uint8_t dims_;
  bool primed_ = false;
  PointRecord merged_;
  // Debug-only: previous emitted coordinates, to CT_DCHECK that the merge
  // of pack-ordered inputs stays pack-ordered.
  Coord prev_coords_[kMaxDims];
  bool have_prev_ = false;
};

}  // namespace cubetree

#endif  // CUBETREE_CUBETREE_MERGE_PACK_H_
