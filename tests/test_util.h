#ifndef CUBETREE_TESTS_TEST_UTIL_H_
#define CUBETREE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/checksum.h"
#include "storage/page_manager.h"

namespace cubetree {

#define ASSERT_OK(expr)                                            \
  do {                                                             \
    const ::cubetree::Status _st = (expr);                         \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                       \
  } while (0)

#define EXPECT_OK(expr)                                            \
  do {                                                             \
    const ::cubetree::Status _st = (expr);                         \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                       \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                            \
  ASSERT_OK_AND_ASSIGN_IMPL(CT_CONCAT_(_r_, __LINE__), lhs, expr)

#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, expr)                  \
  auto tmp = (expr);                                               \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();                \
  lhs = std::move(tmp).value()

/// Per-test scratch directory under the build tree, wiped on creation.
/// The running test's suite.name is folded into the path: fixtures pass a
/// constant name from SetUp, and with `ctest -j` every test is its own
/// process in a shared working directory — two tests of one suite must
/// not wipe each other's directory mid-run.
inline std::string MakeTestDir(const std::string& name) {
  std::string dir = "./ct_test_" + name;
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  if (info != nullptr) {
    std::string suffix =
        std::string("_") + info->test_suite_name() + "." + info->name();
    for (char& c : suffix) {
      if (c == '/') c = '_';  // Parameterized test names contain '/'.
    }
    dir += suffix;
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    ADD_FAILURE() << "failed to create test dir " << dir << ": "
                  << ec.message();
  }
  return dir;
}

/// Rewrites page `page_id` of the page file at `path` through
/// `mutate(char* page_data)` and updates the file's `.crc` sidecar to
/// match: the result reads back as a well-formed page with crafted
/// content, not as a torn or bit-flipped one.
template <typename Mutate>
void RewritePage(const std::string& path, PageId page_id, Mutate mutate) {
  auto file = PageManager::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  Page page;
  ASSERT_OK((*file)->ReadPage(page_id, &page));
  mutate(page.data);
  ASSERT_OK((*file)->WritePage(page_id, page));
  std::vector<uint32_t> crcs;
  ASSERT_OK(LoadChecksumSidecar(path, &crcs));
  ASSERT_LT(page_id, crcs.size());
  crcs[page_id] = Crc32c(page.data, kPageSize);
  ASSERT_OK(WriteChecksumSidecar(path, crcs));
}

}  // namespace cubetree

#endif  // CUBETREE_TESTS_TEST_UTIL_H_
