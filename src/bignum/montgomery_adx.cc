// MULX/ADCX/ADOX Montgomery kernels for fixed lane counts (x86-64).
//
// MULX multiplies without touching the flags, and ADCX/ADOX add through
// the carry flag and the overflow flag respectively, so every lane step of
// a row runs two independent carry chains: the low halves of the products
// into lane j, and the high halves of the previous products into the same
// lane. Each row is one asm block, fully unrolled with .rept over a
// compile-time lane count so no loop counter clobbers the flags; the loop
// over rows stays in C++. The multiply is CIOS, as the runtime-size kernel
// in montgomery.cc, the squaring SOS, and every kernel returns the fully
// reduced product, so both kernels return identical lanes.
//
// The instructions are emitted by the assembler, not chosen by the compiler,
// so this file needs no -mbmi2/-madx; MontgomeryContext only hands these
// kernels out after __builtin_cpu_supports("bmi2") and ("adx").

#include "src/bignum/montgomery_kernels.h"

#if defined(INDAAS_BIGNUM_HAVE_ADX)

#include <utility>

namespace indaas {
namespace mont {
namespace {

// One CIOS row in one block: t = (t + ai * b + m * n) / 2^64 over N + 2
// lanes, t[N+1] zero on entry and exit. m = (t[0] + ai * b[0]) * n_prime
// is computed first from the low lanes, so the reduction pass does not wait
// for the multiply pass and the out-of-order core overlaps the two (and
// the next row's start with this row's tail).
template <size_t N>
inline void CiosRow(uint64_t* t, const uint64_t* b, const uint64_t* n, uint64_t ai,
                    uint64_t n_prime) {
  static_assert(N % 2 == 0);
  asm volatile(
      "movq %[ai], %%r11\n\t"
      "imulq (%[b]), %%r11\n\t"
      "addq (%[t]), %%r11\n\t"
      "imulq %[np], %%r11\n\t"  // m
      "movq %[ai], %%rdx\n\t"
      // t[0..N+1] += ai * b; the CF chain adds low halves, the OF chain the
      // previous lane's high half.
      "xorl %%r10d, %%r10d\n\t"
      "xorl %%eax, %%eax\n\t"  // clears CF and OF
      ".set .Lmj, 0\n\t"
      ".rept %c[half]\n\t"
      "mulxq .Lmj(%[b]), %%r8, %%r9\n\t"
      "adcxq .Lmj(%[t]), %%r8\n\t"
      "adoxq %%r10, %%r8\n\t"
      "movq %%r8, .Lmj(%[t])\n\t"
      "mulxq .Lmj+8(%[b]), %%r8, %%r10\n\t"
      "adcxq .Lmj+8(%[t]), %%r8\n\t"
      "adoxq %%r9, %%r8\n\t"
      "movq %%r8, .Lmj+8(%[t])\n\t"
      ".set .Lmj, .Lmj+16\n\t"
      ".endr\n\t"
      "movq 8*%c[nl](%[t]), %%r8\n\t"
      "adcxq %%rax, %%r8\n\t"
      "adoxq %%r10, %%r8\n\t"
      "movq %%r8, 8*%c[nl](%[t])\n\t"
      "movl $0, %%r8d\n\t"
      "adcxq %%rax, %%r8\n\t"
      "adoxq %%rax, %%r8\n\t"
      "movq %%r8, 8*%c[nl]+8(%[t])\n\t"
      // t = (t + m * n) / 2^64: lane 0 cancels, every other lane moves
      // down one.
      "movq %%r11, %%rdx\n\t"
      "xorl %%eax, %%eax\n\t"
      "mulxq (%[n]), %%r8, %%r10\n\t"
      "adcxq (%[t]), %%r8\n\t"
      ".set .Lmj, 8\n\t"
      ".rept %c[pairs]\n\t"
      "mulxq .Lmj(%[n]), %%r8, %%r9\n\t"
      "adcxq .Lmj(%[t]), %%r8\n\t"
      "adoxq %%r10, %%r8\n\t"
      "movq %%r8, .Lmj-8(%[t])\n\t"
      "mulxq .Lmj+8(%[n]), %%r8, %%r10\n\t"
      "adcxq .Lmj+8(%[t]), %%r8\n\t"
      "adoxq %%r9, %%r8\n\t"
      "movq %%r8, .Lmj(%[t])\n\t"
      ".set .Lmj, .Lmj+16\n\t"
      ".endr\n\t"
      "mulxq .Lmj(%[n]), %%r8, %%r9\n\t"  // lane N - 1
      "adcxq .Lmj(%[t]), %%r8\n\t"
      "adoxq %%r10, %%r8\n\t"
      "movq %%r8, .Lmj-8(%[t])\n\t"
      "movq 8*%c[nl](%[t]), %%r8\n\t"
      "adcxq %%rax, %%r8\n\t"
      "adoxq %%r9, %%r8\n\t"
      "movq %%r8, 8*%c[nl]-8(%[t])\n\t"
      "movq 8*%c[nl]+8(%[t]), %%r8\n\t"
      "adcxq %%rax, %%r8\n\t"
      "adoxq %%rax, %%r8\n\t"
      "movq %%r8, 8*%c[nl](%[t])\n\t"
      "movq %%rax, 8*%c[nl]+8(%[t])\n\t"
      :
      : [t] "r"(t), [b] "r"(b), [n] "r"(n), [ai] "r"(ai), [np] "r"(n_prime),
        [half] "i"(N / 2), [pairs] "i"((N - 2) / 2), [nl] "i"(N)
      : "rax", "rdx", "r8", "r9", "r10", "r11", "cc", "memory");
}

// dst[0..L) += ai * src[0..L); dst[L] (zero on entry) = the carry out.
template <size_t L>
inline void CrossRow(uint64_t* dst, const uint64_t* src, uint64_t ai) {
  asm volatile(
      "xorl %%r10d, %%r10d\n\t"
      "xorl %%eax, %%eax\n\t"
      ".set .Lmj, 0\n\t"
      ".rept %c[half]\n\t"
      "mulxq .Lmj(%[src]), %%r8, %%r9\n\t"
      "adcxq .Lmj(%[dst]), %%r8\n\t"
      "adoxq %%r10, %%r8\n\t"
      "movq %%r8, .Lmj(%[dst])\n\t"
      "mulxq .Lmj+8(%[src]), %%r8, %%r10\n\t"
      "adcxq .Lmj+8(%[dst]), %%r8\n\t"
      "adoxq %%r9, %%r8\n\t"
      "movq %%r8, .Lmj+8(%[dst])\n\t"
      ".set .Lmj, .Lmj+16\n\t"
      ".endr\n\t"
      ".if %c[odd]\n\t"
      "mulxq .Lmj(%[src]), %%r8, %%r9\n\t"
      "adcxq .Lmj(%[dst]), %%r8\n\t"
      "adoxq %%r10, %%r8\n\t"
      "movq %%r8, .Lmj(%[dst])\n\t"
      "movq %%r9, %%r10\n\t"
      ".set .Lmj, .Lmj+8\n\t"
      ".endif\n\t"
      "adcxq %%rax, %%r10\n\t"
      "adoxq %%rax, %%r10\n\t"
      "movq %%r10, .Lmj(%[dst])\n\t"
      : "+d"(ai)
      : [dst] "r"(dst), [src] "r"(src), [half] "i"(L / 2), [odd] "i"(L % 2)
      : "rax", "r8", "r9", "r10", "cc", "memory");
}

// t[0..2N) = 2 * t + sum of a[i]^2 * 2^(128 i): the CF chain doubles, the
// OF chain adds the squares.
template <size_t N>
inline void DoubleAddSquares(uint64_t* t, const uint64_t* a) {
  asm volatile(
      "xorl %%eax, %%eax\n\t"
      ".set .Lmi, 0\n\t"
      ".rept %c[nl]\n\t"
      "movq .Lmi(%[a]), %%rdx\n\t"
      "mulxq %%rdx, %%r8, %%r9\n\t"
      "movq 2*.Lmi(%[t]), %%r10\n\t"
      "adcxq %%r10, %%r10\n\t"
      "adoxq %%r8, %%r10\n\t"
      "movq %%r10, 2*.Lmi(%[t])\n\t"
      "movq 2*.Lmi+8(%[t]), %%r10\n\t"
      "adcxq %%r10, %%r10\n\t"
      "adoxq %%r9, %%r10\n\t"
      "movq %%r10, 2*.Lmi+8(%[t])\n\t"
      ".set .Lmi, .Lmi+8\n\t"
      ".endr\n\t"
      :
      : [t] "r"(t), [a] "r"(a), [nl] "i"(N)
      : "rax", "rdx", "r8", "r9", "r10", "cc", "memory");
}

// m = t[0] * n_prime; t[0..N] += m * n + extra * 2^(64 N) without a shift
// (lane 0 becomes zero). Returns the carry out of lane N.
template <size_t N>
inline uint64_t ReduceRow(uint64_t* t, const uint64_t* n, uint64_t n_prime, uint64_t extra) {
  static_assert(N % 2 == 0);
  asm volatile(
      "movq (%[t]), %%rdx\n\t"
      "imulq %[np], %%rdx\n\t"
      "xorl %%eax, %%eax\n\t"
      "mulxq (%[n]), %%r8, %%r10\n\t"
      "adcxq (%[t]), %%r8\n\t"
      ".set .Lmj, 8\n\t"
      ".rept %c[pairs]\n\t"
      "mulxq .Lmj(%[n]), %%r8, %%r9\n\t"
      "adcxq .Lmj(%[t]), %%r8\n\t"
      "adoxq %%r10, %%r8\n\t"
      "movq %%r8, .Lmj(%[t])\n\t"
      "mulxq .Lmj+8(%[n]), %%r8, %%r10\n\t"
      "adcxq .Lmj+8(%[t]), %%r8\n\t"
      "adoxq %%r9, %%r8\n\t"
      "movq %%r8, .Lmj+8(%[t])\n\t"
      ".set .Lmj, .Lmj+16\n\t"
      ".endr\n\t"
      "mulxq .Lmj(%[n]), %%r8, %%r9\n\t"
      "adcxq .Lmj(%[t]), %%r8\n\t"
      "adoxq %%r10, %%r8\n\t"
      "movq %%r8, .Lmj(%[t])\n\t"
      // t[N] += extra + hi + CF + OF; extra = the carries out.
      "movq 8*%c[nl](%[t]), %%r8\n\t"
      "adcxq %[extra], %%r8\n\t"
      "adoxq %%r9, %%r8\n\t"
      "movq %%r8, 8*%c[nl](%[t])\n\t"
      "movl $0, %k[extra]\n\t"
      "adcxq %%rax, %[extra]\n\t"
      "adoxq %%rax, %[extra]\n\t"
      : [extra] "+r"(extra)
      : [t] "r"(t), [n] "r"(n), [np] "r"(n_prime), [pairs] "i"((N - 2) / 2), [nl] "i"(N)
      : "rax", "rdx", "r8", "r9", "r10", "cc", "memory");
  return extra;
}

// out = (top:t) - n when (top:t) >= n, else t; (top:t) < 2n. An SBB
// chain writes t - n to out, then CMOVC (which leaves CF alone) puts t back
// in every lane when the chain borrowed with no top lane. `out` must not
// alias `t`.
template <size_t N>
inline void SubtractIfNotBelow(uint64_t* out, const uint64_t* t, uint64_t top, const uint64_t* n) {
  asm volatile(
      "movq (%[t]), %%r8\n\t"
      "subq (%[n]), %%r8\n\t"
      "movq %%r8, (%[out])\n\t"
      ".set .Lmj, 8\n\t"
      ".rept %c[rest]\n\t"
      "movq .Lmj(%[t]), %%r8\n\t"
      "sbbq .Lmj(%[n]), %%r8\n\t"
      "movq %%r8, .Lmj(%[out])\n\t"
      ".set .Lmj, .Lmj+8\n\t"
      ".endr\n\t"
      "sbbq $0, %[top]\n\t"  // CF: t < n and no top lane, so keep t
      ".set .Lmj, 0\n\t"
      ".rept %c[nl]\n\t"
      "movq .Lmj(%[out]), %%r8\n\t"
      "cmovcq .Lmj(%[t]), %%r8\n\t"
      "movq %%r8, .Lmj(%[out])\n\t"
      ".set .Lmj, .Lmj+8\n\t"
      ".endr\n\t"
      : [top] "+r"(top)
      : [out] "r"(out), [t] "r"(t), [n] "r"(n), [rest] "i"(N - 1), [nl] "i"(N)
      : "r8", "cc", "memory");
}

template <size_t N>
void AdxMul(uint64_t* out, const uint64_t* a, const uint64_t* b, const uint64_t* n,
            uint64_t n_prime, size_t /*lanes*/) {
  uint64_t t[N + 2] = {};
  for (size_t i = 0; i < N; ++i) {
    CiosRow<N>(t, b, n, a[i], n_prime);
  }
  SubtractIfNotBelow<N>(out, t, t[N], n);
}

// SOS (separated operand scanning) squaring: the cross products a[i]*a[j],
// i < j, once (one unrolled row per i); double them and add the squares
// a[i]^2; then N Montgomery reduction rows over the 2N-lane product. About
// 1.5 N^2 lane products against CIOS's 2 N^2.
template <size_t N>
void AdxSqr(uint64_t* out, const uint64_t* a, const uint64_t* n, uint64_t n_prime,
            size_t /*lanes*/) {
  uint64_t t[2 * N] = {};
  [&]<size_t... I>(std::index_sequence<I...>) {
    (CrossRow<N - 1 - I>(t + 2 * I + 1, a + I + 1, a[I]), ...);
  }(std::make_index_sequence<N - 1>{});
  DoubleAddSquares<N>(t, a);
  uint64_t extra = 0;
  for (size_t i = 0; i < N; ++i) {
    extra = ReduceRow<N>(t + i, n, n_prime, extra);
  }
  SubtractIfNotBelow<N>(out, t + N, extra, n);
}

}  // namespace

bool AdxKernels(size_t lanes, MontgomeryContext::MulFn* mul, MontgomeryContext::SqrFn* sqr) {
  switch (lanes) {
    case 12:
      *mul = AdxMul<12>;
      *sqr = AdxSqr<12>;
      return true;
    case 16:
      *mul = AdxMul<16>;
      *sqr = AdxSqr<16>;
      return true;
    case 24:
      *mul = AdxMul<24>;
      *sqr = AdxSqr<24>;
      return true;
    case 32:
      *mul = AdxMul<32>;
      *sqr = AdxSqr<32>;
      return true;
    default:
      return false;
  }
}
}  // namespace mont
}  // namespace indaas

#endif  // INDAAS_BIGNUM_HAVE_ADX
