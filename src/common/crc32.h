#ifndef CUBETREE_COMMON_CRC32_H_
#define CUBETREE_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace cubetree {

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) over
/// `n` bytes at `data`. Pass the return value of a previous call as `seed`
/// to extend the checksum over a fragmented buffer:
///
///   uint32_t c = Crc32c(a, na);
///   c = Crc32c(b, nb, c);  // == Crc32c(concat(a, b))
///
/// Used for WAL record framing, per-page verify-on-read and the invariant
/// checkers; chosen over plain CRC-32 because it is the checksum hardware
/// accelerates: on x86-64 with SSE4.2 (runtime-detected) this runs on the
/// CRC32 instruction in three interleaved streams, elsewhere on a
/// slice-by-8 table implementation.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

namespace crc32_internal {

/// The slice-by-8 table implementation Crc32c falls back to without
/// SSE4.2, callable on any host so tests can hold both paths to the same
/// answers. Same contract as Crc32c.
uint32_t Crc32cSlice8(const void* data, size_t n, uint32_t seed = 0);

}  // namespace crc32_internal

}  // namespace cubetree

#endif  // CUBETREE_COMMON_CRC32_H_
