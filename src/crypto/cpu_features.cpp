#include "crypto/cpu_features.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace sos::crypto::detail {

namespace {
CpuFeatures probe() {
  CpuFeatures f;
#if defined(__x86_64__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return f;
  const bool sse41 = (c & (1u << 19)) != 0;
  const bool osxsave = (c & (1u << 27)) != 0;
  const bool avx = (c & (1u << 28)) != 0;
  // YMM registers are usable only if the OS saves their upper halves on a
  // context switch: XCR0 bits 1 (SSE) and 2 (AVX) both set.
  bool ymm_state = false;
  if (osxsave) {
    unsigned xcr0_lo = 0, xcr0_hi = 0;
    __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
    ymm_state = (xcr0_lo & 0x6u) == 0x6u;
  }
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return f;
  f.sha_ni = sse41 && (b & (1u << 29)) != 0;
  f.avx2 = avx && ymm_state && (b & (1u << 5)) != 0;
#endif
  return f;
}
}  // namespace

const CpuFeatures& cpu_features() {
  // A function-local static, not a namespace-scope initializer: the probe
  // must not depend on static-initialization order across translation units.
  static const CpuFeatures features = probe();
  return features;
}

}  // namespace sos::crypto::detail
