#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#include <nmmintrin.h>
#define CUBETREE_CRC32C_X86 1
#endif

namespace cubetree {

namespace {

// Slice-by-8 software CRC-32C. With verify-on-read checksumming every
// physical page read this sits on the storage hot path, so the classic
// byte-at-a-time loop (a few hundred MB/s) is not enough: eight parallel
// table lookups per 8-byte word break the serial dependency chain and run
// several times faster. The SSE4.2 CRC32 instruction (detected at runtime
// below) is faster still and is used whenever the CPU has it.
constexpr uint32_t kCrc32cPoly = 0x82F63B78u;

using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32cTables MakeTables() {
  Crc32cTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kCrc32cPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = tables[0][i];
    for (size_t t = 1; t < 8; ++t) {
      crc = tables[0][crc & 0xFF] ^ (crc >> 8);
      tables[t][i] = crc;
    }
  }
  return tables;
}

constexpr Crc32cTables kTables = MakeTables();

uint32_t Crc32cSoftware(const unsigned char* p, size_t n, uint32_t crc) {
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    word ^= crc;
    crc = kTables[7][word & 0xFF] ^ kTables[6][(word >> 8) & 0xFF] ^
          kTables[5][(word >> 16) & 0xFF] ^ kTables[4][(word >> 24) & 0xFF] ^
          kTables[3][(word >> 32) & 0xFF] ^ kTables[2][(word >> 40) & 0xFF] ^
          kTables[1][(word >> 48) & 0xFF] ^ kTables[0][word >> 56];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = kTables[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#ifdef CUBETREE_CRC32C_X86

bool CpuHasSse42() {
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ecx & bit_SSE4_2) != 0;
}

// Three-way interleaved hardware CRC. The CRC32 instruction has a latency
// of three cycles but issues one per cycle, so one serial chain leaves two
// thirds of the unit idle. Splitting a stretch into three equal blocks and
// running an independent chain over each keeps it busy; the three partial
// CRCs are then joined through the zero-shift tables below (CRC state
// updates are linear, so crc(A || B) = shift(crc(A), |B|) ^ crc0(B), where
// crc0 starts from a zero state). Blocks are sized so one 8 KiB page is a
// single triple plus one word; whatever is left of a buffer after its
// triples runs on the serial loop.
constexpr size_t kBlock = 2728;  // 3 * 2728 = 8184.

using ShiftTable = std::array<std::array<uint32_t, 256>, 4>;

// The CRC state after feeding `n` zero bytes to state `crc`.
constexpr uint32_t ShiftZeros(uint32_t crc, size_t n) {
  for (size_t i = 0; i < n; ++i) crc = kTables[0][crc & 0xFF] ^ (crc >> 8);
  return crc;
}

// Byte-wise tables of the (linear) map ShiftZeros(., n): entry [k][b] is
// the image of byte b placed at bits 8k..8k+7. Built from the images of the
// 32 basis states, so construction costs 32 * n steps, not 1024 * n.
constexpr ShiftTable MakeShiftTable(size_t n) {
  std::array<uint32_t, 32> basis{};
  for (size_t bit = 0; bit < 32; ++bit) {
    basis[bit] = ShiftZeros(1u << bit, n);
  }
  ShiftTable table{};
  for (size_t k = 0; k < 4; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      uint32_t image = 0;
      for (size_t bit = 0; bit < 8; ++bit) {
        if ((b >> bit) & 1) image ^= basis[8 * k + bit];
      }
      table[k][b] = image;
    }
  }
  return table;
}

constexpr ShiftTable kBlockShift = MakeShiftTable(kBlock);

inline uint32_t ShiftBlock(uint32_t crc) {
  return kBlockShift[0][crc & 0xFF] ^ kBlockShift[1][(crc >> 8) & 0xFF] ^
         kBlockShift[2][(crc >> 16) & 0xFF] ^ kBlockShift[3][crc >> 24];
}

inline uint64_t Load64(const unsigned char* p) {
  uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

// The CRC of 3 * kBlock bytes at `p` continuing from state `crc`.
__attribute__((target("sse4.2"))) inline uint32_t Crc32cTriple(
    const unsigned char* p, uint32_t crc) {
  static_assert(kBlock % 8 == 0, "blocks are whole words");
  uint64_t crc0 = crc;
  uint64_t crc1 = 0;
  uint64_t crc2 = 0;
  const unsigned char* const end = p + kBlock;
  for (; p < end; p += 8) {
    crc0 = _mm_crc32_u64(crc0, Load64(p));
    crc1 = _mm_crc32_u64(crc1, Load64(p + kBlock));
    crc2 = _mm_crc32_u64(crc2, Load64(p + 2 * kBlock));
  }
  const uint32_t joined =
      ShiftBlock(static_cast<uint32_t>(crc0)) ^ static_cast<uint32_t>(crc1);
  return ShiftBlock(joined) ^ static_cast<uint32_t>(crc2);
}

__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(
    const unsigned char* p, size_t n, uint32_t crc) {
  for (; n >= 3 * kBlock; p += 3 * kBlock, n -= 3 * kBlock) {
    crc = Crc32cTriple(p, crc);
  }
  uint64_t crc64 = crc;
  for (; n >= 8; p += 8, n -= 8) crc64 = _mm_crc32_u64(crc64, Load64(p));
  crc = static_cast<uint32_t>(crc64);
  while (n-- > 0) {
    crc = _mm_crc32_u8(crc, *p++);
  }
  return crc;
}

#endif  // CUBETREE_CRC32C_X86

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
#ifdef CUBETREE_CRC32C_X86
  static const bool use_hardware = CpuHasSse42();
  if (use_hardware) {
    return ~Crc32cHardware(static_cast<const unsigned char*>(data), n, ~seed);
  }
#endif
  return crc32_internal::Crc32cSlice8(data, n, seed);
}

namespace crc32_internal {

uint32_t Crc32cSlice8(const void* data, size_t n, uint32_t seed) {
  return ~Crc32cSoftware(static_cast<const unsigned char*>(data), n, ~seed);
}

}  // namespace crc32_internal

}  // namespace cubetree
