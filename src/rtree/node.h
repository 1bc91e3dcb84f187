#ifndef CUBETREE_RTREE_NODE_H_
#define CUBETREE_RTREE_NODE_H_

#include <cstdint>
#include <cstring>

#include "common/coding.h"
#include "rtree/geometry.h"
#include "storage/page.h"

namespace cubetree {

// On-page layouts of packed R-tree nodes.
//
// Every node starts with an 8-byte header:
//   [0]    uint8  is_leaf
//   [1]    uint8  arity   (leaves: stored coordinates per entry)
//   [2..3] uint16 entry count
//   [4..7] uint32 view_id (leaves) / unused (internal)
//
// Leaf entries (compressed): arity * 4 bytes of coordinates followed by the
// 12-byte aggregate payload. Coordinates arity..dims-1 are implicitly zero —
// this is the paper's leaf compression, legal because packing places each
// view in its own contiguous run of leaves.
//
// Internal entries: 2 * dims * 4 bytes MBR (lo then hi) + 4-byte child page.

inline constexpr size_t kRNodeHeaderSize = 8;

inline constexpr uint32_t kRTreeMagic = 0x43545254;  // "CTRT"

/// The metadata page (page 0) of a packed R-tree file:
///   [0..3]   magic
///   [4]      dims
///   [5]      compress flag
///   [6]      pack-order flag (see `pack_ordered`)
///   [7]      pad
///   [8..11]  root page
///   [12..15] height
///   [16..23] num_points
///   [24..27] num_leaf_pages
/// Files written before byte 6 was assigned carry 0 there (the pad was
/// zero-filled), so they decode as not pack-ordered.
struct RTreeMeta {
  uint8_t dims = 0;
  bool compress_leaves = false;
  /// The build verified strict pack order (x_max, ..., x_1) on its input.
  /// Then the children of every internal node are non-decreasing in
  /// lo[dims-1] and hi[dims-1], and the entries of a leaf of arity a > 0
  /// are non-decreasing in coordinate a-1 — the invariant the sorted
  /// search window relies on.
  bool pack_ordered = false;
  PageId root = kInvalidPageId;
  uint32_t height = 0;
  uint64_t num_points = 0;
  PageId num_leaf_pages = 0;

  /// Writes the metadata into a zeroed page image.
  void EncodeTo(char* page) const {
    EncodeFixed32(page, kRTreeMagic);
    page[4] = static_cast<char>(dims);
    page[5] = compress_leaves ? 1 : 0;
    page[6] = pack_ordered ? 1 : 0;
    EncodeFixed32(page + 8, root);
    EncodeFixed32(page + 12, height);
    EncodeFixed64(page + 16, num_points);
    EncodeFixed32(page + 24, num_leaf_pages);
  }

  /// Decodes a metadata page; false (fields untouched) on a bad magic.
  /// Field ranges are the caller's to validate.
  bool DecodeFrom(const char* page) {
    if (DecodeFixed32(page) != kRTreeMagic) return false;
    dims = static_cast<uint8_t>(page[4]);
    compress_leaves = page[5] != 0;
    pack_ordered = page[6] != 0;
    root = DecodeFixed32(page + 8);
    height = DecodeFixed32(page + 12);
    num_points = DecodeFixed64(page + 16);
    num_leaf_pages = DecodeFixed32(page + 24);
    return true;
  }
};

inline bool RNodeIsLeaf(const char* page) { return page[0] != 0; }
inline uint8_t RNodeArity(const char* page) {
  return static_cast<uint8_t>(page[1]);
}
inline uint16_t RNodeCount(const char* page) {
  uint16_t v;
  std::memcpy(&v, page + 2, sizeof(v));
  return v;
}
inline uint32_t RNodeViewId(const char* page) { return DecodeFixed32(page + 4); }

inline void RNodeSetHeader(char* page, bool is_leaf, uint8_t arity,
                           uint16_t count, uint32_t view_id) {
  page[0] = is_leaf ? 1 : 0;
  page[1] = static_cast<char>(arity);
  std::memcpy(page + 2, &count, sizeof(count));
  EncodeFixed32(page + 4, view_id);
}
inline void RNodeSetCount(char* page, uint16_t count) {
  std::memcpy(page + 2, &count, sizeof(count));
}

inline size_t RLeafEntryBytes(uint8_t arity) {
  return static_cast<size_t>(arity) * sizeof(Coord) + kAggValueBytes;
}
inline size_t RInternalEntryBytes(uint8_t dims) {
  return 2 * static_cast<size_t>(dims) * sizeof(Coord) + sizeof(uint32_t);
}

inline uint16_t RLeafCapacity(uint8_t arity) {
  return static_cast<uint16_t>((kPageSize - kRNodeHeaderSize) /
                               RLeafEntryBytes(arity));
}
inline uint16_t RInternalCapacity(uint8_t dims) {
  return static_cast<uint16_t>((kPageSize - kRNodeHeaderSize) /
                               RInternalEntryBytes(dims));
}

/// Writes one leaf entry at `dest`.
inline void RLeafWriteEntry(char* dest, const Coord* coords, uint8_t arity,
                            const AggValue& agg) {
  std::memcpy(dest, coords, static_cast<size_t>(arity) * sizeof(Coord));
  char* p = dest + static_cast<size_t>(arity) * sizeof(Coord);
  EncodeFixed64(p, static_cast<uint64_t>(agg.sum));
  EncodeFixed32(p + 8, agg.count);
}

/// Reads one leaf entry from `src` into a full-width point record, zeroing
/// the suppressed coordinates.
inline void RLeafReadEntry(const char* src, uint8_t arity, uint32_t view_id,
                           PointRecord* out) {
  out->view_id = view_id;
  std::memcpy(out->coords, src, static_cast<size_t>(arity) * sizeof(Coord));
  for (size_t i = arity; i < kMaxDims; ++i) out->coords[i] = 0;
  const char* p = src + static_cast<size_t>(arity) * sizeof(Coord);
  out->agg.sum = static_cast<int64_t>(DecodeFixed64(p));
  out->agg.count = DecodeFixed32(p + 8);
}

/// Coordinate `d` of the leaf entry at `src`, without decoding the rest.
inline Coord RLeafCoord(const char* src, size_t d) {
  return DecodeFixed32(src + d * sizeof(Coord));
}

/// lo[d] / hi[d] of the internal entry at `src`, without decoding the rest.
inline Coord RInternalLo(const char* src, size_t d) {
  return DecodeFixed32(src + d * sizeof(Coord));
}
inline Coord RInternalHi(const char* src, uint8_t dims, size_t d) {
  return DecodeFixed32(src + (static_cast<size_t>(dims) + d) * sizeof(Coord));
}

/// Writes one internal entry (MBR + child) at `dest`.
inline void RInternalWriteEntry(char* dest, const Rect& mbr, uint8_t dims,
                                PageId child) {
  std::memcpy(dest, mbr.lo, static_cast<size_t>(dims) * sizeof(Coord));
  std::memcpy(dest + static_cast<size_t>(dims) * sizeof(Coord), mbr.hi,
              static_cast<size_t>(dims) * sizeof(Coord));
  EncodeFixed32(dest + 2 * static_cast<size_t>(dims) * sizeof(Coord), child);
}

/// Reads one internal entry.
inline void RInternalReadEntry(const char* src, uint8_t dims, Rect* mbr,
                               PageId* child) {
  std::memcpy(mbr->lo, src, static_cast<size_t>(dims) * sizeof(Coord));
  std::memcpy(mbr->hi, src + static_cast<size_t>(dims) * sizeof(Coord),
              static_cast<size_t>(dims) * sizeof(Coord));
  for (size_t i = dims; i < kMaxDims; ++i) {
    mbr->lo[i] = 0;
    mbr->hi[i] = 0;
  }
  *child = DecodeFixed32(src + 2 * static_cast<size_t>(dims) * sizeof(Coord));
}

}  // namespace cubetree

#endif  // CUBETREE_RTREE_NODE_H_
