// AVX-512 IFMA batch exponentiation: eight numbers, one exponent (x86-64).
//
// The layout is vertical: __m512i number j of an operand holds 52-bit limb
// j of eight independent numbers, one per 64-bit lane, so one
// VPMADD52LUQ/HUQ multiplies limb pairs of all eight at once and the eight
// exponentiations run in lockstep through one square/multiply sequence.
// Each lane keeps 12 bits of headroom above its 52-bit limb, so a product
// accumulates unnormalised limbs and propagates carries once at its end.
//
// The multiply is almost-Montgomery CIOS with R = 2^(52 L): inputs below
// 2n give an output below 2n as long as 4n < R, and the MODP sizes leave
// R / n >= 2^12. Only the exponentiation's final conversion out of
// Montgomery form reduces fully, with a branch-free per-lane subtraction.
//
// Every function here carries the avx512f/avx512ifma target attribute, so
// the file needs no -mavx512* flag; MontgomeryContext only hands the kernel
// out after __builtin_cpu_supports("avx512f") and ("avx512ifma").

#include "src/bignum/montgomery_kernels.h"

#if defined(INDAAS_BIGNUM_HAVE_IFMA)

#include <immintrin.h>

#define INDAAS_IFMA __attribute__((target("avx512f,avx512ifma")))

namespace indaas {
namespace mont {
namespace {

constexpr uint64_t kMask52 = (uint64_t{1} << 52) - 1;
constexpr size_t kTableSize = 16;  // the 4-bit window of ModExp

// x >> s in every lane. Written as a full-mask maskz shift: GCC 12's
// _mm512_srli_epi64 reads an undefined vector that -Wuninitialized reports.
INDAAS_IFMA inline __m512i ShiftRight(__m512i x, unsigned s) {
  return _mm512_maskz_srli_epi64(0xFF, x, s);
}

// r = a * b * R^-1 mod n, up to one extra n, for eight numbers at once.
// a and b hold L normalised 52-bit limbs below 2n; n holds the modulus's
// limbs (shared by every lane) and n_prime = -n^-1 mod 2^52 in every lane.
// Row i adds a[i] * b and then m * n, m chosen so the low limb's low 52
// bits cancel, and shifts down one limb, passing that limb's carry on.
// A limb takes at most four 52-bit terms per row, so L <= 40 rows stay
// below 2^60. `r` may alias `a` or `b`.
template <size_t L>
INDAAS_IFMA inline void AlmostMontMul(__m512i* r, const __m512i* a, const __m512i* b,
                                      const uint64_t* n, __m512i n_prime) {
  const __m512i zero = _mm512_setzero_si512();
  __m512i t[L + 1];
#pragma GCC unroll 64
  for (size_t j = 0; j <= L; ++j) {
    t[j] = zero;
  }
  for (size_t i = 0; i < L; ++i) {
    const __m512i ai = a[i];
#pragma GCC unroll 64
    for (size_t j = 0; j < L; ++j) {
      t[j] = _mm512_madd52lo_epu64(t[j], ai, b[j]);
      t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], ai, b[j]);
    }
    const __m512i m = _mm512_madd52lo_epu64(zero, t[0], n_prime);
#pragma GCC unroll 64
    for (size_t j = 0; j < L; ++j) {
      const __m512i nj = _mm512_set1_epi64(static_cast<long long>(n[j]));
      t[j] = _mm512_madd52lo_epu64(t[j], m, nj);
      t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], m, nj);
    }
    const __m512i carry = ShiftRight(t[0], 52);
#pragma GCC unroll 64
    for (size_t j = 0; j < L; ++j) {
      t[j] = t[j + 1];
    }
    t[L] = zero;
    t[0] = _mm512_add_epi64(t[0], carry);
  }
  // One carry pass normalises the limbs; the value is below 2n < R, so
  // nothing carries out of the top limb.
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kMask52));
  __m512i carry = zero;
#pragma GCC unroll 64
  for (size_t j = 0; j < L; ++j) {
    const __m512i x = _mm512_add_epi64(t[j], carry);
    r[j] = _mm512_and_si512(x, mask);
    carry = ShiftRight(x, 52);
  }
}

// out = table[digit], reading all kTableSize entries and keeping one under
// a mask, so the addresses touched do not depend on the digit.
template <size_t L>
INDAAS_IFMA inline void SelectEntry(__m512i* out, const __m512i (*table)[L], uint32_t digit) {
#pragma GCC unroll 64
  for (size_t j = 0; j < L; ++j) {
    out[j] = _mm512_setzero_si512();
  }
  for (uint32_t e = 0; e < kTableSize; ++e) {
    const __m512i mask = _mm512_set1_epi64(-static_cast<long long>(e == digit));
#pragma GCC unroll 64
    for (size_t j = 0; j < L; ++j) {
      out[j] = _mm512_or_si512(out[j], _mm512_and_si512(table[e][j], mask));
    }
  }
}

// Eight exponentiations in lockstep: ModExp's fixed 4-bit window, which
// squares four times and multiplies once per window, whatever the digit.
template <size_t L>
INDAAS_IFMA void IfmaModExp8(const IfmaConstants& c, const uint64_t* bases, uint64_t* out,
                             const uint8_t* digits, size_t windows) {
  const __m512i n_prime = _mm512_set1_epi64(static_cast<long long>(c.n_prime));
  const uint64_t* n = c.n.data();
  __m512i table[kTableSize][L];
  __m512i acc[L];
  __m512i entry[L];
  // table[0] = R mod n, table[1] = base * R (base * R^2 * R^-1).
  for (size_t j = 0; j < L; ++j) {
    table[0][j] = _mm512_set1_epi64(static_cast<long long>(c.one[j]));
    entry[j] = _mm512_set1_epi64(static_cast<long long>(c.r2[j]));
    acc[j] = _mm512_loadu_si512(bases + kBatchWidth * j);
  }
  AlmostMontMul<L>(table[1], acc, entry, n, n_prime);
  for (size_t d = 2; d < kTableSize; ++d) {
    AlmostMontMul<L>(table[d], table[d - 1], table[1], n, n_prime);
  }

  SelectEntry<L>(acc, table, digits[0]);
  for (size_t w = 1; w < windows; ++w) {
    for (int s = 0; s < 4; ++s) {
      AlmostMontMul<L>(acc, acc, acc, n, n_prime);
    }
    SelectEntry<L>(entry, table, digits[w]);
    AlmostMontMul<L>(acc, acc, entry, n, n_prime);
  }

  // Out of Montgomery form: multiply by plain 1. The result is at most n.
  entry[0] = _mm512_set1_epi64(1);
  for (size_t j = 1; j < L; ++j) {
    entry[j] = _mm512_setzero_si512();
  }
  AlmostMontMul<L>(acc, acc, entry, n, n_prime);

  // Per lane: subtract n unless that borrows.
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kMask52));
  __m512i borrow = _mm512_setzero_si512();
  for (size_t j = 0; j < L; ++j) {
    const __m512i d = _mm512_sub_epi64(
        _mm512_sub_epi64(acc[j], _mm512_set1_epi64(static_cast<long long>(n[j]))), borrow);
    entry[j] = _mm512_and_si512(d, mask);
    borrow = ShiftRight(d, 63);
  }
  const __mmask8 keep_difference = _mm512_cmpeq_epi64_mask(borrow, _mm512_setzero_si512());
  for (size_t j = 0; j < L; ++j) {
    _mm512_storeu_si512(out + kBatchWidth * j,
                        _mm512_mask_blend_epi64(keep_difference, acc[j], entry[j]));
  }
}

}  // namespace

bool IfmaKernel(size_t lanes, size_t* limbs, IfmaModExpFn* fn) {
  switch (lanes) {
    case 12:
      *limbs = 15;
      *fn = IfmaModExp8<15>;
      return true;
    case 16:
      *limbs = 20;
      *fn = IfmaModExp8<20>;
      return true;
    case 24:
      *limbs = 30;
      *fn = IfmaModExp8<30>;
      return true;
    case 32:
      *limbs = 40;
      *fn = IfmaModExp8<40>;
      return true;
    default:
      return false;
  }
}

}  // namespace mont
}  // namespace indaas

#endif  // INDAAS_BIGNUM_HAVE_IFMA
