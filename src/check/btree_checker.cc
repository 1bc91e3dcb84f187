#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "btree/btree_node.h"
#include "check/checkers.h"
#include "storage/page_manager.h"

namespace cubetree {

namespace {

int CompareKeys(const uint32_t* a, const uint32_t* b, uint8_t parts) {
  for (size_t i = 0; i < parts; ++i) {
    if (a[i] < b[i]) return -1;
    if (a[i] > b[i]) return 1;
  }
  return 0;
}

std::string KeyString(const uint32_t* key, uint8_t parts) {
  std::string out = "(";
  for (size_t i = 0; i < parts; ++i) {
    if (i > 0) out += ",";
    out += std::to_string(key[i]);
  }
  return out + ")";
}

}  // namespace

struct BTreeChecker::Impl {
  Impl(std::string path_in, CheckOptions options_in)
      : path(std::move(path_in)), options(options_in) {}

  std::string path;
  CheckOptions options;

  PageManager* file = nullptr;
  BTreeMeta meta;
  CheckReport* report = nullptr;

  /// Leaves in left-to-right walk order, with their chain links.
  struct LeafInfo {
    PageId id;
    PageId link;
  };
  std::vector<LeafInfo> leaves;
  std::set<PageId> visited;
  uint64_t entries = 0;
  std::vector<uint32_t> prev_key;
  bool have_prev = false;

  void Error(const std::string& code, const std::string& message,
             PageId page = kInvalidPageId) {
    report->AddError("btree", code, message,
                     page == kInvalidPageId
                         ? path
                         : path + " page " + std::to_string(page));
  }

  /// Recursive walk. `low` (inclusive) bounds the subtree's keys when
  /// non-null; `high` (exclusive) likewise.
  void WalkNode(PageId node_id, uint32_t depth, const uint32_t* low,
                const uint32_t* high);
};

BTreeChecker::BTreeChecker(std::string path, CheckOptions options)
    : impl_(new Impl(std::move(path), options)) {}

BTreeChecker::~BTreeChecker() = default;

void BTreeChecker::Impl::WalkNode(PageId node_id, uint32_t depth,
                                  const uint32_t* low, const uint32_t* high) {
  if (node_id == 0 || node_id >= file->NumPages()) {
    Error("child-pointer",
          "child pointer " + std::to_string(node_id) + " out of range");
    return;
  }
  if (!visited.insert(node_id).second) {
    Error("page-shared", "page referenced more than once (cycle or shared "
                         "subtree)",
          node_id);
    return;
  }
  if (depth > meta.height) {
    Error("depth", "node deeper than the recorded height " +
                       std::to_string(meta.height),
          node_id);
    return;
  }
  Page page;
  if (!file->ReadPage(node_id, &page).ok()) {
    Error("unreadable-page", "cannot read page", node_id);
    return;
  }
  const uint8_t parts = meta.key_parts;
  const uint16_t count = BNodeCount(page.data);
  uint32_t key_buf[kMaxBTreeKeyParts];

  if (BNodeIsLeaf(page.data)) {
    if (depth != meta.height) {
      Error("leaf-depth", "leaf at depth " + std::to_string(depth) +
                              ", expected " + std::to_string(meta.height),
            node_id);
    }
    const uint16_t capacity = BTreeLeafCapacity(parts, meta.value_size);
    if (count > capacity) {
      Error("leaf-overflow", "leaf count " + std::to_string(count) +
                                 " exceeds capacity " +
                                 std::to_string(capacity),
            node_id);
      return;
    }
    if (count == 0 && meta.num_entries > 0) {
      Error("empty-node", "empty leaf in a nonempty tree", node_id);
    }
    const size_t entry_bytes = BTreeLeafEntryBytes(parts, meta.value_size);
    for (uint16_t i = 0; i < count; ++i) {
      std::memcpy(key_buf, page.data + kBTreeNodeHeaderSize + i * entry_bytes,
                  BTreeKeyBytes(parts));
      if (have_prev &&
          CompareKeys(prev_key.data(), key_buf, parts) >= 0) {
        Error("key-order", "keys not strictly ascending at " +
                               KeyString(key_buf, parts),
              node_id);
      }
      if (low != nullptr && CompareKeys(key_buf, low, parts) < 0) {
        Error("separator-bound", "key " + KeyString(key_buf, parts) +
                                     " below its subtree's separator " +
                                     KeyString(low, parts),
              node_id);
      }
      if (high != nullptr && CompareKeys(key_buf, high, parts) >= 0) {
        Error("separator-bound", "key " + KeyString(key_buf, parts) +
                                     " at or above the next separator " +
                                     KeyString(high, parts),
              node_id);
      }
      prev_key.assign(key_buf, key_buf + parts);
      have_prev = true;
      ++entries;
    }
    leaves.push_back(LeafInfo{node_id, BNodeLink(page.data)});
    return;
  }

  const uint16_t capacity = BTreeInternalCapacity(parts);
  if (count > capacity) {
    Error("internal-overflow", "internal count " + std::to_string(count) +
                                   " exceeds capacity " +
                                   std::to_string(capacity),
          node_id);
    return;
  }
  if (count == 0) {
    Error("empty-node", "internal node with no separators", node_id);
    return;
  }
  const size_t entry_bytes = BTreeInternalEntryBytes(parts);
  // Separators must themselves be strictly ascending.
  std::vector<uint32_t> separators(static_cast<size_t>(count) * parts);
  for (uint16_t i = 0; i < count; ++i) {
    std::memcpy(separators.data() + static_cast<size_t>(i) * parts,
                page.data + kBTreeNodeHeaderSize + i * entry_bytes,
                BTreeKeyBytes(parts));
    if (i > 0 &&
        CompareKeys(separators.data() + (static_cast<size_t>(i) - 1) * parts,
                    separators.data() + static_cast<size_t>(i) * parts,
                    parts) >= 0) {
      Error("separator-order", "separators not strictly ascending", node_id);
    }
  }
  // Children: [link | keys < s0], then per separator i: [child_i | keys in
  // [s_i, s_{i+1})].
  WalkNode(BNodeLink(page.data), depth + 1, low,
           separators.data());
  for (uint16_t i = 0; i < count; ++i) {
    const PageId child = DecodeFixed32(page.data + kBTreeNodeHeaderSize +
                                       i * entry_bytes +
                                       BTreeKeyBytes(parts));
    const uint32_t* child_low =
        separators.data() + static_cast<size_t>(i) * parts;
    const uint32_t* child_high =
        (i + 1 < count)
            ? separators.data() + (static_cast<size_t>(i) + 1) * parts
            : high;
    WalkNode(child, depth + 1, child_low, child_high);
  }
}

Status BTreeChecker::Run(CheckReport* report) {
  Impl& ctx = *impl_;
  ctx.report = report;
  auto file_result = PageManager::Open(ctx.path);
  if (!file_result.ok()) return file_result.status();
  auto file = std::move(file_result).value();
  ctx.file = file.get();

  if (file->NumPages() == 0) {
    ctx.Error("meta-missing", "file has no pages");
    return Status::OK();
  }
  Page meta_page;
  CT_RETURN_NOT_OK(file->ReadPage(0, &meta_page));
  if (!BTreeReadMeta(meta_page.data, &ctx.meta)) {
    ctx.Error("meta-magic", "bad magic in metadata page");
    return Status::OK();
  }
  if (ctx.meta.key_parts == 0 || ctx.meta.key_parts > kMaxBTreeKeyParts) {
    ctx.Error("meta-key-parts", "key_parts " +
                                    std::to_string(ctx.meta.key_parts) +
                                    " outside [1, " +
                                    std::to_string(kMaxBTreeKeyParts) + "]");
    return Status::OK();
  }
  if (BTreeLeafEntryBytes(ctx.meta.key_parts, ctx.meta.value_size) >
      kPageSize - kBTreeNodeHeaderSize) {
    ctx.Error("meta-value-size", "one leaf entry does not fit in a page");
    return Status::OK();
  }
  if (ctx.meta.root == kInvalidPageId || ctx.meta.root >= file->NumPages()) {
    ctx.Error("meta-root",
              "root page " + std::to_string(ctx.meta.root) + " out of range");
    return Status::OK();
  }
  if (ctx.meta.height == 0) {
    ctx.Error("meta-height", "height 0 with a valid root");
    return Status::OK();
  }
  if (!ctx.options.deep) return Status::OK();

  ctx.WalkNode(ctx.meta.root, 1, nullptr, nullptr);

  if (ctx.entries != ctx.meta.num_entries) {
    ctx.Error("entry-count",
              "walk found " + std::to_string(ctx.entries) +
                  " entries, metadata records " +
                  std::to_string(ctx.meta.num_entries));
  }
  // The leaf chain must thread the leaves exactly in walk order.
  for (size_t i = 0; i < ctx.leaves.size(); ++i) {
    const PageId expected = (i + 1 < ctx.leaves.size())
                                ? ctx.leaves[i + 1].id
                                : kInvalidPageId;
    if (ctx.leaves[i].link != expected) {
      ctx.Error("leaf-chain",
                "leaf link points to page " +
                    std::to_string(ctx.leaves[i].link) + ", expected " +
                    std::to_string(expected),
                ctx.leaves[i].id);
    }
  }
  return Status::OK();
}

}  // namespace cubetree
