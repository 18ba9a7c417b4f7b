#include "util/crc32.h"

#include <array>

#include "util/crc32_internal.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace ptsb {

namespace {

// Slice-by-8 CRC-32C: processes 8 bytes per step, ~6-8x faster than the
// byte-at-a-time loop. The portable fallback for CPUs without a CRC-32C
// instruction.
struct Crc32cTables {
  std::array<std::array<uint32_t, 256>, 8> t{};
  Crc32cTables() {
    constexpr uint32_t kPoly = 0x82f63b78u;  // reflected Castagnoli
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t c = i;
      for (int k = 0; k < 8; k++) {
        c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t c = t[0][i];
      for (int s = 1; s < 8; s++) {
        c = t[0][c & 0xff] ^ (c >> 8);
        t[s][i] = c;
      }
    }
  }
};

const Crc32cTables kT;

#if defined(__x86_64__)
// SSE4.2 `crc32` computes CRC-32C natively, 8 bytes per instruction.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(uint32_t crc,
                                                       const void* data,
                                                       size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    c = _mm_crc32_u8(c, *p++);
    n--;
  }
  uint64_t c64 = c;
  while (n >= 8) {
    uint64_t w;
    __builtin_memcpy(&w, p, 8);
    c64 = _mm_crc32_u64(c64, w);
    p += 8;
    n -= 8;
  }
  c = static_cast<uint32_t>(c64);
  while (n > 0) {
    c = _mm_crc32_u8(c, *p++);
    n--;
  }
  return ~c;
}
#endif

using Crc32cFn = uint32_t (*)(uint32_t, const void*, size_t);

// Chosen once, on first use.
Crc32cFn SelectCrc32c() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return crc32c_internal::Crc32cPortable;
}

Crc32cFn Crc32cImpl() {
  static const Crc32cFn impl = SelectCrc32c();
  return impl;
}

}  // namespace

namespace crc32c_internal {

uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  // Align to 8 bytes.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = kT.t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
    n--;
  }
  while (n >= 8) {
    uint64_t w;
    __builtin_memcpy(&w, p, 8);
    w ^= crc;
    crc = kT.t[7][w & 0xff] ^ kT.t[6][(w >> 8) & 0xff] ^
          kT.t[5][(w >> 16) & 0xff] ^ kT.t[4][(w >> 24) & 0xff] ^
          kT.t[3][(w >> 32) & 0xff] ^ kT.t[2][(w >> 40) & 0xff] ^
          kT.t[1][(w >> 48) & 0xff] ^ kT.t[0][(w >> 56) & 0xff];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = kT.t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
    n--;
  }
  return ~crc;
}

bool HardwareCrc32c() { return Crc32cImpl() != Crc32cPortable; }

}  // namespace crc32c_internal

uint32_t Crc32c(uint32_t crc, const void* data, size_t n) {
  return Crc32cImpl()(crc, data, n);
}

}  // namespace ptsb
