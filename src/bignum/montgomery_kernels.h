// Internal to src/bignum: the MULX/ADCX/ADOX kernels of montgomery_adx.cc
// and the AVX-512 IFMA batch kernel of montgomery_ifma.cc, handed out by
// MontgomeryContext in montgomery.cc.

#ifndef SRC_BIGNUM_MONTGOMERY_KERNELS_H_
#define SRC_BIGNUM_MONTGOMERY_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/bignum/montgomery.h"

namespace indaas {
namespace mont {

#if defined(__x86_64__) && defined(__GNUC__)
#define INDAAS_BIGNUM_HAVE_ADX 1
// The MULX/ADCX/ADOX kernels for 12, 16, 24 or 32 lanes (the 768/1024/
// 1536/2048-bit MODP groups); false for any other lane count. Only call
// the returned kernels on CPUs with BMI2 and ADX.
bool AdxKernels(size_t lanes, MontgomeryContext::MulFn* mul, MontgomeryContext::SqrFn* sqr);

#define INDAAS_BIGNUM_HAVE_IFMA 1
#endif

// Numbers the batch kernel raises at once (64-bit lanes of a __m512i), and
// the most 52-bit limbs of its operands (2048-bit moduli).
inline constexpr size_t kBatchWidth = 8;
inline constexpr size_t kIfmaMaxLimbs = 40;

struct IfmaConstants;

// Raises kBatchWidth bases to one exponent modulo n. `bases` and `out`
// are vertical: 52-bit limb j of number v sits at [kBatchWidth * j + v],
// for c.limbs limbs. Bases are below n; results are fully reduced. The
// exponent comes as its 4-bit digits, most significant first (`windows`
// of them, the first non-zero).
using IfmaModExpFn = void (*)(const IfmaConstants& c, const uint64_t* bases, uint64_t* out,
                              const uint8_t* digits, size_t windows);

// One modulus in the batch kernel's terms, with R = 2^(52 * limbs).
struct IfmaConstants {
  IfmaModExpFn fn = nullptr;
  size_t limbs = 0;
  uint64_t n_prime = 0;       // -n^-1 mod 2^52
  std::vector<uint64_t> n;    // the modulus, `limbs` 52-bit limbs
  std::vector<uint64_t> one;  // R mod n
  std::vector<uint64_t> r2;   // R^2 mod n
};

#if defined(INDAAS_BIGNUM_HAVE_IFMA)
// The IFMA kernel for a modulus of 12, 16, 24 or 32 64-bit lanes, and its
// 52-bit limb count (15/20/30/40, at most kIfmaMaxLimbs); false for any
// other lane count. Only call the kernel on CPUs with AVX-512F and AVX-512
// IFMA.
bool IfmaKernel(size_t lanes, size_t* limbs, IfmaModExpFn* fn);
#endif

}  // namespace mont
}  // namespace indaas

#endif  // SRC_BIGNUM_MONTGOMERY_KERNELS_H_
