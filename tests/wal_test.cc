#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "engine/wal.h"
#include "fault/fault_injector.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

constexpr size_t kHeader = WriteAheadLog::kRecordHeader;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Writes the prefix to a new file rather than truncating the old one:
// ext4 flushes a file that was truncated to zero and rewritten when it is
// closed, which makes the truncation sweeps' thousands of rewrites wait on
// the disk.
void WritePrefix(const std::string& path, const std::string& bytes,
                 size_t count) {
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(count));
  ASSERT_TRUE(out.good()) << path;
}

TEST(WalTest, LogsAndForces) {
  const std::string dir = MakeTestDir("wal_basic");
  auto stats = std::make_shared<IoStats>();
  ASSERT_OK_AND_ASSIGN(auto wal,
                       WriteAheadLog::Create(dir + "/w.wal", stats));
  const std::string record(100, 'x');
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(wal->LogRecord(record.data(), record.size()));
  }
  EXPECT_EQ(wal->records(), 10u);
  EXPECT_EQ(wal->BytesLogged(), 10u * (100 + kHeader));
  // Nothing hit the disk yet (buffered within one page).
  EXPECT_EQ(stats->TotalWrites(), 0u);
  ASSERT_OK(wal->Force());
  EXPECT_EQ(stats->TotalWrites(), 1u);
  EXPECT_EQ(stats->sequential_writes, 1u);
}

TEST(WalTest, SpillsFullPages) {
  const std::string dir = MakeTestDir("wal_pages");
  auto stats = std::make_shared<IoStats>();
  ASSERT_OK_AND_ASSIGN(auto wal,
                       WriteAheadLog::Create(dir + "/w.wal", stats));
  const std::string record(1000, 'y');
  // 100 records x 1008 bytes > 12 pages.
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(wal->LogRecord(record.data(), record.size()));
  }
  EXPECT_GE(stats->sequential_writes, 12u);
  EXPECT_EQ(stats->random_writes, 0u);
}

TEST(WalTest, RecordsSpanPageBoundaries) {
  const std::string dir = MakeTestDir("wal_span");
  ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Create(dir + "/w.wal"));
  // A record larger than a page must be accepted and accounted fully.
  const std::string big(3 * kPageSize, 'z');
  ASSERT_OK(wal->LogRecord(big.data(), big.size()));
  ASSERT_OK(wal->Force());
  EXPECT_EQ(wal->BytesLogged(), big.size() + kHeader);
}

TEST(WalTest, ForceIsIdempotentWhenEmpty) {
  const std::string dir = MakeTestDir("wal_idem");
  auto stats = std::make_shared<IoStats>();
  ASSERT_OK_AND_ASSIGN(auto wal,
                       WriteAheadLog::Create(dir + "/w.wal", stats));
  ASSERT_OK(wal->Force());
  ASSERT_OK(wal->Force());
  EXPECT_EQ(stats->TotalWrites(), 0u);
}

TEST(WalTest, RejectsEmptyRecord) {
  const std::string dir = MakeTestDir("wal_empty");
  ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Create(dir + "/w.wal"));
  EXPECT_TRUE(wal->LogRecord("", 0).IsInvalidArgument());
}

TEST(WalTest, ReplayRoundTrip) {
  const std::string dir = MakeTestDir("wal_replay");
  const std::string path = dir + "/w.wal";
  ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Create(path));
  std::vector<std::string> written;
  // Two commit batches with varied record sizes, including one spanning a
  // page boundary.
  for (size_t size : {1u, 100u, 4000u, 9000u}) {
    written.emplace_back(size, static_cast<char>('a' + written.size()));
    ASSERT_OK(wal->LogRecord(written.back().data(), written.back().size()));
  }
  ASSERT_OK(wal->Force());
  for (size_t size : {17u, 8200u}) {
    written.emplace_back(size, static_cast<char>('a' + written.size()));
    ASSERT_OK(wal->LogRecord(written.back().data(), written.back().size()));
  }
  ASSERT_OK(wal->Force());

  std::vector<std::string> replayed;
  ASSERT_OK_AND_ASSIGN(
      auto stats, WriteAheadLog::Replay(path, [&](const char* d, size_t n) {
        replayed.emplace_back(d, n);
      }));
  EXPECT_EQ(replayed, written);
  EXPECT_EQ(stats.records, written.size());

  // Replay idempotence: a second pass observes the identical sequence.
  ASSERT_OK_AND_ASSIGN(auto again, WriteAheadLog::Replay(path));
  EXPECT_EQ(again.records, stats.records);
  EXPECT_EQ(again.payload_bytes, stats.payload_bytes);
  EXPECT_EQ(again.digest, stats.digest);
}

TEST(WalTest, ReplaySkipsUnforcedTail) {
  const std::string dir = MakeTestDir("wal_unforced");
  const std::string path = dir + "/w.wal";
  ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Create(path));
  const std::string committed(64, 'c');
  ASSERT_OK(wal->LogRecord(committed.data(), committed.size()));
  ASSERT_OK(wal->Force());
  const std::string buffered(64, 'u');
  ASSERT_OK(wal->LogRecord(buffered.data(), buffered.size()));
  // No Force: the second record never reached the disk.
  ASSERT_OK_AND_ASSIGN(auto stats, WriteAheadLog::Replay(path));
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.payload_bytes, committed.size());
}

TEST(WalTest, ReplayDetectsBitFlip) {
  const std::string dir = MakeTestDir("wal_bitflip");
  const std::string path = dir + "/w.wal";
  ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Create(path));
  const std::string record(200, 'r');
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(wal->LogRecord(record.data(), record.size()));
  }
  ASSERT_OK(wal->Force());
  wal.reset();
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    // Flip a payload byte in the middle of the third record.
    f.seekp(2 * (200 + kHeader) + kHeader + 100);
    char c;
    f.seekg(f.tellp());
    f.get(c);
    f.seekp(2 * (200 + kHeader) + kHeader + 100);
    c = static_cast<char>(c ^ 0x40);
    f.put(c);
  }
  auto result = WriteAheadLog::Replay(path);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST(WalTest, TolerantReplayMatchesStrictOnCleanLogs) {
  const std::string dir = MakeTestDir("wal_tolerant_clean");
  const std::string path = dir + "/w.wal";
  ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Create(path));
  for (size_t size : {1u, 100u, 4000u, 9000u}) {
    const std::string record(size, 'q');
    ASSERT_OK(wal->LogRecord(record.data(), record.size()));
  }
  ASSERT_OK(wal->Force());
  wal.reset();
  ASSERT_OK_AND_ASSIGN(auto strict, WriteAheadLog::Replay(path));
  ASSERT_OK_AND_ASSIGN(auto tolerant, WriteAheadLog::ReplayTolerant(path));
  EXPECT_EQ(tolerant.records, strict.records);
  EXPECT_EQ(tolerant.payload_bytes, strict.payload_bytes);
  EXPECT_EQ(tolerant.digest, strict.digest);
  EXPECT_FALSE(tolerant.torn);
  EXPECT_EQ(tolerant.torn_bytes, 0u);
}

// Crash-mid-append sweep: cut the file at EVERY byte offset within the
// last record and assert tolerant replay recovers exactly the records
// before it — the longest valid prefix — and never surfaces a partial or
// corrupt record.
TEST(WalTest, TolerantReplayTruncationSweep) {
  const std::string dir = MakeTestDir("wal_sweep");
  const std::string path = dir + "/w.wal";
  const std::string cut_path = dir + "/cut.wal";
  std::vector<std::string> written;
  {
    ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Create(path));
    for (size_t size : {100u, 200u, 300u, 500u}) {
      written.emplace_back(size,
                           static_cast<char>('a' + written.size()));
      ASSERT_OK(wal->LogRecord(written.back().data(),
                               written.back().size()));
    }
    ASSERT_OK(wal->Force());
  }
  // No record here is large enough to force header padding, so on-disk
  // offsets are just the running sum of header + payload.
  size_t last_start = 0;
  for (size_t i = 0; i + 1 < written.size(); ++i) {
    last_start += kHeader + written[i].size();
  }
  const size_t last_end = last_start + kHeader + written.back().size();
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GE(bytes.size(), last_end);

  for (size_t cut = last_start; cut < last_end; ++cut) {
    WritePrefix(cut_path, bytes, cut);
    std::vector<std::string> replayed;
    auto result = WriteAheadLog::ReplayTolerant(
        cut_path,
        [&](const char* d, size_t n) { replayed.emplace_back(d, n); });
    ASSERT_TRUE(result.ok())
        << "cut at " << cut << ": " << result.status().ToString();
    ASSERT_EQ(result.value().records, written.size() - 1)
        << "cut at " << cut;
    for (size_t i = 0; i + 1 < written.size(); ++i) {
      ASSERT_EQ(replayed[i], written[i]) << "cut at " << cut;
    }
    // A cut inside the record body is reported as torn; a cut exactly at
    // the record start just looks like padding.
    if (result.value().torn) {
      EXPECT_EQ(result.value().torn_bytes, cut - last_start)
          << "cut at " << cut;
    }
  }
}

// Same sweep with the last record spanning multiple pages: cuts land both
// inside earlier whole pages and in the ragged tail.
TEST(WalTest, TolerantReplayTruncationSweepMultiPage) {
  const std::string dir = MakeTestDir("wal_sweep_multi");
  const std::string path = dir + "/w.wal";
  const std::string cut_path = dir + "/cut.wal";
  const std::string first(64, 'f');
  const std::string big(2 * kPageSize + 4000, 'g');
  {
    ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Create(path));
    ASSERT_OK(wal->LogRecord(first.data(), first.size()));
    ASSERT_OK(wal->LogRecord(big.data(), big.size()));
    ASSERT_OK(wal->Force());
  }
  const size_t last_start = kHeader + first.size();
  const size_t last_end = last_start + kHeader + big.size();
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GE(bytes.size(), last_end);

  for (size_t cut = last_start; cut < last_end; ++cut) {
    WritePrefix(cut_path, bytes, cut);
    std::vector<std::string> replayed;
    auto result = WriteAheadLog::ReplayTolerant(
        cut_path,
        [&](const char* d, size_t n) { replayed.emplace_back(d, n); });
    ASSERT_TRUE(result.ok())
        << "cut at " << cut << ": " << result.status().ToString();
    ASSERT_EQ(result.value().records, 1u) << "cut at " << cut;
    ASSERT_EQ(replayed[0], first) << "cut at " << cut;
  }
}

// Torn tail at the exact CRC-frame boundary: the crash cut the log
// between a record's 4-byte length word and its 4-byte checksum word. The
// length is present and nonzero, the checksum and payload are gone — the
// nastiest framing state, because a replayer that trusts the length word
// alone would happily deliver garbage. Both replay modes must refuse:
// tolerant recovers exactly the preceding records and reports the tail
// torn; strict surfaces a typed error, never a partial record.
TEST(WalTest, TornTailAtHeaderCrcBoundary) {
  const std::string dir = MakeTestDir("wal_header_boundary");
  const std::string path = dir + "/w.wal";
  const std::string cut_path = dir + "/cut.wal";
  std::vector<std::string> written;
  {
    ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Create(path));
    for (size_t size : {100u, 200u, 300u}) {
      written.emplace_back(size, static_cast<char>('a' + written.size()));
      ASSERT_OK(
          wal->LogRecord(written.back().data(), written.back().size()));
    }
    ASSERT_OK(wal->Force());
  }
  size_t last_start = 0;
  for (size_t i = 0; i + 1 < written.size(); ++i) {
    last_start += kHeader + written[i].size();
  }
  const std::string bytes = ReadFileBytes(path);
  // Cut exactly 4 bytes into the last record's header: after the length
  // word, before the checksum word.
  const size_t cut = last_start + 4;
  WritePrefix(cut_path, bytes, cut);

  std::vector<std::string> replayed;
  ASSERT_OK_AND_ASSIGN(
      auto tolerant,
      WriteAheadLog::ReplayTolerant(cut_path, [&](const char* d, size_t n) {
        replayed.emplace_back(d, n);
      }));
  EXPECT_EQ(tolerant.records, written.size() - 1);
  ASSERT_EQ(replayed.size(), written.size() - 1);
  for (size_t i = 0; i + 1 < written.size(); ++i) {
    EXPECT_EQ(replayed[i], written[i]);
  }
  EXPECT_TRUE(tolerant.torn);
  EXPECT_EQ(tolerant.torn_bytes, 4u);

  // Strict replay of the raw cut: the file is not page-aligned, so the
  // open itself refuses — no partial record can ever be delivered.
  size_t strict_applied = 0;
  auto strict_raw = WriteAheadLog::Replay(
      cut_path, [&](const char*, size_t) { ++strict_applied; });
  EXPECT_FALSE(strict_raw.ok());
  EXPECT_EQ(strict_applied, 0u);

  // Page-granular devices zero-fill the remainder of the torn sector:
  // extend the cut file to a whole zero page. Strict replay now parses a
  // nonzero length whose checksum word was zeroed — a typed Corruption at
  // the frame boundary, with the exact record sequence untouched.
  {
    std::string padded = bytes.substr(0, cut);
    padded.resize(kPageSize, '\0');
    WritePrefix(cut_path, padded, padded.size());
  }
  strict_applied = 0;
  auto strict_padded = WriteAheadLog::Replay(
      cut_path, [&](const char*, size_t) { ++strict_applied; });
  ASSERT_FALSE(strict_padded.ok());
  EXPECT_TRUE(strict_padded.status().IsCorruption())
      << strict_padded.status().ToString();
  // The two intact records preceding the boundary were applied; the torn
  // third never was.
  EXPECT_EQ(strict_applied, written.size() - 1);

  // Tolerant replay of the padded variant agrees with the raw cut on the
  // recovered prefix.
  replayed.clear();
  ASSERT_OK_AND_ASSIGN(
      auto tolerant_padded,
      WriteAheadLog::ReplayTolerant(cut_path, [&](const char* d, size_t n) {
        replayed.emplace_back(d, n);
      }));
  EXPECT_EQ(tolerant_padded.records, written.size() - 1);
  EXPECT_TRUE(tolerant_padded.torn);
}

// Crash mid-append simulated through the storage failpoint instead of
// after-the-fact truncation: the spilling page persists only a prefix, and
// tolerant replay recovers every record fully inside it.
TEST(WalTest, TolerantReplayAfterTornAppend) {
  const std::string dir = MakeTestDir("wal_torn_append");
  const std::string path = dir + "/w.wal";
  const std::string record(64, 't');
  const size_t framed = kHeader + record.size();
  ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Create(path));
  ASSERT_OK(FaultInjector::Instance().Arm("storage.page.append", "torn"));
  Status status = Status::OK();
  while (status.ok()) {
    status = wal->LogRecord(record.data(), record.size());
  }
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  FaultInjector::Instance().DisarmAll();
  wal.reset();

  // The torn append persisted a kPageSize/3-byte prefix of the first page.
  const size_t persisted = kPageSize / 3;
  const size_t expect_records = persisted / framed;
  std::vector<std::string> replayed;
  ASSERT_OK_AND_ASSIGN(
      auto stats, WriteAheadLog::ReplayTolerant(
                      path, [&](const char* d, size_t n) {
                        replayed.emplace_back(d, n);
                      }));
  EXPECT_TRUE(stats.torn);
  ASSERT_EQ(stats.records, expect_records);
  for (const std::string& r : replayed) EXPECT_EQ(r, record);
}

TEST(WalTest, StrictAndTolerantReplayAfterEnospcAppend) {
  const std::string dir = MakeTestDir("wal_enospc_append");
  const std::string path = dir + "/w.wal";
  const std::string record(64, 'e');
  ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Create(path));
  constexpr uint64_t kCommitted = 5;
  for (uint64_t i = 0; i < kCommitted; ++i) {
    ASSERT_OK(wal->LogRecord(record.data(), record.size()));
  }
  ASSERT_OK(wal->Force());  // The committed prefix, durable on disk.

  // The volume fills: every further page append fails with StorageFull and
  // persists nothing (ENOSPC before the write, unlike a torn append).
  ASSERT_OK(FaultInjector::Instance().Arm("storage.page.append", "enospc"));
  Status status = Status::OK();
  while (status.ok()) {
    status = wal->LogRecord(record.data(), record.size());
  }
  EXPECT_TRUE(status.IsStorageFull()) << status.ToString();
  FaultInjector::Instance().DisarmAll();
  wal.reset();

  // Nothing after the Force() reached disk, so the file still ends exactly
  // at the page boundary the flush left: even strict Replay — which
  // rejects ragged files outright — recovers the committed prefix, and
  // tolerant replay agrees without reporting a torn tail.
  for (const bool tolerant : {false, true}) {
    std::vector<std::string> replayed;
    const auto apply = [&](const char* d, size_t n) {
      replayed.emplace_back(d, n);
    };
    auto stats = tolerant ? WriteAheadLog::ReplayTolerant(path, apply)
                          : WriteAheadLog::Replay(path, apply);
    ASSERT_TRUE(stats.ok()) << (tolerant ? "tolerant" : "strict") << ": "
                            << stats.status().ToString();
    EXPECT_FALSE(stats->torn);
    EXPECT_EQ(stats->records, kCommitted);
    ASSERT_EQ(replayed.size(), kCommitted);
    for (const std::string& r : replayed) EXPECT_EQ(r, record);
  }
}

}  // namespace
}  // namespace cubetree
