#include "cubetree/merge_pack.h"

#include <cstring>

#include "common/assert.h"
#include "rtree/geometry.h"

namespace cubetree {

Status MergePointSource::Next(const PointRecord** record) {
  if (!primed_) {
    for (size_t i = 0; i < inputs_.size(); ++i) {
      CT_RETURN_NOT_OK(inputs_[i]->Next(&heads_[i]));
    }
    primed_ = true;
  }
  // A refresh merges a handful of inputs (main tree, pending deltas,
  // increment): one linear pass finds the smallest head and every input
  // tied with it.
  const PointRecord* min = nullptr;
  ties_.clear();
  for (size_t i = 0; i < heads_.size(); ++i) {
    const PointRecord* head = heads_[i];
    if (head == nullptr) continue;
    const int cmp =
        min == nullptr ? -1 : PackOrderCompare(head->coords, min->coords, dims_);
    if (cmp < 0) {
      min = head;
      ties_.clear();
    }
    if (cmp <= 0) ties_.push_back(i);
  }
  if (min == nullptr) {
    *record = nullptr;
    return Status::OK();
  }
  merged_ = *min;
  for (size_t k = 1; k < ties_.size(); ++k) {
    const PointRecord* head = heads_[ties_[k]];
    if (head->view_id != merged_.view_id) {
      return Status::Corruption(
          "merge-pack: identical coordinates from different views");
    }
    merged_.agg.Merge(head->agg);
  }
  // Advance only after the copy: a source may reuse its record buffer.
  for (size_t i : ties_) CT_RETURN_NOT_OK(inputs_[i]->Next(&heads_[i]));
  if (CT_DCHECK_IS_ON()) {
    CT_DCHECK(!have_prev_ ||
              PackOrderCompare(prev_coords_, merged_.coords, dims_) < 0)
        << "merge-pack output left pack order";
    std::memcpy(prev_coords_, merged_.coords, sizeof(prev_coords_));
    have_prev_ = true;
  }
  *record = &merged_;
  return Status::OK();
}

}  // namespace cubetree
