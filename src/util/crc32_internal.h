// CRC-32C implementation details, exposed for tests only: production code
// calls Crc32c (util/crc32.h), which picks the fastest path once.
#ifndef PTSB_UTIL_CRC32_INTERNAL_H_
#define PTSB_UTIL_CRC32_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace ptsb::crc32c_internal {

// The portable slice-by-8 table implementation (same contract as Crc32c).
uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t n);

// True when Crc32c runs on the CPU's CRC-32C instruction (x86 SSE4.2)
// rather than on Crc32cPortable.
bool HardwareCrc32c();

}  // namespace ptsb::crc32c_internal

#endif  // PTSB_UTIL_CRC32_INTERNAL_H_
