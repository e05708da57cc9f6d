// Internal to src/bignum: the MULX/ADCX/ADOX kernels of montgomery_adx.cc,
// handed out by MontgomeryContext in montgomery.cc.

#ifndef SRC_BIGNUM_MONTGOMERY_KERNELS_H_
#define SRC_BIGNUM_MONTGOMERY_KERNELS_H_

#include <cstddef>

#include "src/bignum/montgomery.h"

namespace indaas {
namespace mont {

#if defined(__x86_64__) && defined(__GNUC__)
#define INDAAS_BIGNUM_HAVE_ADX 1
// The MULX/ADCX/ADOX kernels for 12, 16, 24 or 32 lanes (the 768/1024/
// 1536/2048-bit MODP groups); false for any other lane count. Only call
// the returned kernels on CPUs with BMI2 and ADX.
bool AdxKernels(size_t lanes, MontgomeryContext::MulFn* mul, MontgomeryContext::SqrFn* sqr);
#endif

}  // namespace mont
}  // namespace indaas

#endif  // SRC_BIGNUM_MONTGOMERY_KERNELS_H_
