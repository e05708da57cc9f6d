// Montgomery-form modular multiplication for odd moduli.
//
// Modular exponentiation dominates the cost of the P-SOP commutative cipher
// and the Paillier cryptosystem; Montgomery multiplication avoids a full
// division per step. Two kernels implement it (DESIGN.md §12):
//
//   kAdx      fixed-limb CIOS multiply and SOS squaring in MULX/ADCX/ADOX
//             assembly (two independent carry chains); x86-64 CPUs with
//             BMI2 and ADX, moduli of 12/16/24/32 64-bit lanes.
//   kRuntime  CIOS in C++ over __int128 and a runtime lane count, with
//             stack scratch; every other modulus size and CPU.
//
// Create() picks kAdx when the modulus and CPU allow it, once.

#ifndef SRC_BIGNUM_MONTGOMERY_H_
#define SRC_BIGNUM_MONTGOMERY_H_

#include <cstdint>
#include <vector>

#include "src/bignum/biguint.h"
#include "src/util/status.h"

namespace indaas {

enum class MontKernel { kRuntime, kAdx };

const char* MontKernelName(MontKernel kernel);

// Precomputed context for arithmetic modulo a fixed odd modulus n.
class MontgomeryContext {
 public:
  // n must be odd and > 1. Dispatches to the fastest available kernel.
  static Result<MontgomeryContext> Create(const BigUint& modulus);

  // Pins a kernel (tests and microbenchmarks). Fails when the kernel cannot
  // serve this modulus size or this CPU.
  static Result<MontgomeryContext> CreateWithKernel(const BigUint& modulus, MontKernel kernel);

  // True when the CPU has what `kernel` needs (BMI2 and ADX for kAdx).
  static bool KernelAvailable(MontKernel kernel);

  const BigUint& modulus() const { return modulus_; }
  MontKernel kernel() const { return kernel_; }

  // Number of 64-bit lanes of the modulus (and of every lane operand).
  size_t lanes() const { return lanes_; }

  // Converts into Montgomery form (a * R mod n). Any a is accepted.
  BigUint ToMontgomery(const BigUint& a) const;

  // Converts out of Montgomery form. Inputs >= n are reduced first.
  BigUint FromMontgomery(const BigUint& a_mont) const;

  // Montgomery product: (a * b * R^-1) mod n, both inputs in Montgomery
  // form. Inputs >= n are reduced first, so the result is always < n.
  BigUint MulMont(const BigUint& a_mont, const BigUint& b_mont) const;

  // The kernel on raw little-endian lanes (lanes() each, values < n):
  // out = a * b * R^-1 mod n, and out = a * a * R^-1 mod n. `out` may alias
  // an input.
  void MulLanes(uint64_t* out, const uint64_t* a, const uint64_t* b) const;
  void SqrLanes(uint64_t* out, const uint64_t* a) const;

  // (base ^ exponent) mod n, plain (non-Montgomery) in/out. A fixed 4-bit
  // window that multiplies on every window (by R mod n for a zero digit)
  // and reads its table with a masked select, so the square/multiply
  // sequence depends only on the exponent's bit length.
  BigUint ModExp(const BigUint& base, const BigUint& exponent) const;

  // Kernel entry points: out = a * b * R^-1 mod n over `lanes` lanes.
  using MulFn = void (*)(uint64_t* out, const uint64_t* a, const uint64_t* b, const uint64_t* n,
                         uint64_t n_prime, size_t lanes);
  using SqrFn = void (*)(uint64_t* out, const uint64_t* a, const uint64_t* n, uint64_t n_prime,
                         size_t lanes);

 private:
  MontgomeryContext() = default;

  // Packs a value < n into lanes() lanes.
  void Pack(const BigUint& value, uint64_t* out) const;

  BigUint modulus_;
  MontKernel kernel_ = MontKernel::kRuntime;
  MulFn mul_ = nullptr;
  SqrFn sqr_ = nullptr;
  size_t lanes_ = 0;
  uint64_t n_prime_ = 0;             // -n^{-1} mod 2^64
  std::vector<uint64_t> mod_lanes_;  // n
  std::vector<uint64_t> one_lanes_;  // R mod n (Montgomery form of 1)
  std::vector<uint64_t> r2_lanes_;   // R^2 mod n (conversion factor)
};

}  // namespace indaas

#endif  // SRC_BIGNUM_MONTGOMERY_H_
