// CPU features the symmetric-crypto kernels dispatch on. Probed once per
// process; every kernel behind a feature is bitwise identical to its scalar
// reference, so dispatch changes speed, never output.
#pragma once

namespace sos::crypto::detail {

struct CpuFeatures {
  bool sha_ni = false;  // SHA extensions + SSE4.1: the SHA-256 compress kernel
  bool avx2 = false;    // AVX2 with YMM state enabled by the OS: 8-lane ChaCha20
};

/// The running CPU's features (CPUID leaves 1 and 7, XGETBV). All false on
/// targets other than x86-64, where only the scalar kernels are compiled.
const CpuFeatures& cpu_features();

}  // namespace sos::crypto::detail
