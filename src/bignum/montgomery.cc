#include "src/bignum/montgomery.h"

#include <algorithm>
#include <cassert>

#include "src/bignum/montgomery_kernels.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace indaas {
namespace {

using u128 = unsigned __int128;

// ModExp's fixed window: 4 bits, so a 16-entry table.
constexpr size_t kWindow = 4;
constexpr size_t kTableSize = 1u << kWindow;

// The batch kernel's limbs: 52 bits in each 64-bit lane.
constexpr uint64_t kMask52 = (uint64_t{1} << 52) - 1;

// Runtime-size kernels keep their scratch on the stack up to this many
// lanes (4096-bit moduli); larger moduli fall back to one heap buffer.
constexpr size_t kStackLanes = 64;

// Inverse of an odd 64-bit value modulo 2^64 via Newton iteration.
uint64_t InverseMod64(uint64_t n) {
  uint64_t x = n;  // 3 correct bits
  for (int i = 0; i < 6; ++i) {
    x *= 2 - n * x;  // Doubles correct bits each step.
  }
  return x;
}

// Unpacks 64-bit lanes into a BigUint.
BigUint Unpack(const uint64_t* lanes, size_t count) {
  std::vector<uint32_t> limbs;
  limbs.reserve(count * 2);
  for (size_t i = 0; i < count; ++i) {
    limbs.push_back(static_cast<uint32_t>(lanes[i]));
    limbs.push_back(static_cast<uint32_t>(lanes[i] >> 32));
  }
  return BigUint::FromLimbs(std::move(limbs));
}

// Splits `value` (< 2^(52 count)) into `count` 52-bit limbs, written to
// out[0], out[stride], ... (stride kBatchWidth: the vertical batch layout).
void ToLimbs52(const BigUint& value, uint64_t* out, size_t count, size_t stride) {
  const std::vector<uint32_t>& src = value.limbs();
  u128 acc = 0;
  size_t bits = 0;
  size_t next = 0;
  for (size_t j = 0; j < count; ++j) {
    while (bits < 52 && next < src.size()) {
      acc |= static_cast<u128>(src[next++]) << bits;
      bits += 32;
    }
    out[j * stride] = static_cast<uint64_t>(acc) & kMask52;
    acc >>= 52;
    bits = bits > 52 ? bits - 52 : 0;
  }
}

// The inverse of ToLimbs52.
BigUint FromLimbs52(const uint64_t* in, size_t count, size_t stride) {
  std::vector<uint32_t> limbs;
  limbs.reserve((52 * count + 31) / 32);
  u128 acc = 0;
  size_t bits = 0;
  for (size_t j = 0; j < count; ++j) {
    acc |= static_cast<u128>(in[j * stride]) << bits;
    for (bits += 52; bits >= 32; bits -= 32) {
      limbs.push_back(static_cast<uint32_t>(acc));
      acc >>= 32;
    }
  }
  limbs.push_back(static_cast<uint32_t>(acc));
  return BigUint::FromLimbs(std::move(limbs));
}

// out = (top:t) - n when (top:t) >= n, else t; (top:t) < 2n. Branch-free:
// one pass finds whether t - n borrows, a second subtracts n under a mask.
// `out` may alias `t`. Plain 64-bit compares keep the borrow in a register.
void FinalSubtract(uint64_t* out, const uint64_t* t, uint64_t top, const uint64_t* n, size_t s) {
  uint64_t borrow = 0;
  for (size_t j = 0; j < s; ++j) {
    const uint64_t d = t[j] - n[j];
    borrow = static_cast<uint64_t>(t[j] < n[j]) | static_cast<uint64_t>(d < borrow);
  }
  // Subtract unless t - n borrowed with no top lane to absorb it.
  const uint64_t mask = (borrow & (top ^ 1)) - 1;
  borrow = 0;
  for (size_t j = 0; j < s; ++j) {
    const uint64_t sub = n[j] & mask;
    const uint64_t d = t[j] - sub;
    const uint64_t next = static_cast<uint64_t>(t[j] < sub) | static_cast<uint64_t>(d < borrow);
    out[j] = d - borrow;
    borrow = next;
  }
}

// CIOS (coarsely integrated operand scanning): for each lane a[i],
// t += a[i] * b, then t += m * n with m chosen so the low lane cancels, and
// shift t down one lane. t has s + 2 lanes, zeroed on entry; on exit
// (t[s]:t[0..s)) = a * b * R^-1 mod n plus possibly one n.
void CiosRows(uint64_t* t, const uint64_t* a, const uint64_t* b,
                                            const uint64_t* n, uint64_t n_prime, size_t s) {
  for (size_t i = 0; i < s; ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < s; ++j) {
      u128 cur = static_cast<u128>(a[i]) * b[j] + t[j] + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    u128 top = static_cast<u128>(t[s]) + carry;
    t[s] = static_cast<uint64_t>(top);
    t[s + 1] = static_cast<uint64_t>(top >> 64);

    const uint64_t m = t[0] * n_prime;
    carry = static_cast<uint64_t>((static_cast<u128>(m) * n[0] + t[0]) >> 64);
    for (size_t j = 1; j < s; ++j) {
      u128 cur = static_cast<u128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    top = static_cast<u128>(t[s]) + carry;
    t[s - 1] = static_cast<uint64_t>(top);
    t[s] = t[s + 1] + static_cast<uint64_t>(top >> 64);
  }
}

void RuntimeMul(uint64_t* out, const uint64_t* a, const uint64_t* b, const uint64_t* n,
                uint64_t n_prime, size_t lanes) {
  uint64_t stack_t[kStackLanes + 2] = {};
  std::vector<uint64_t> heap_t;
  uint64_t* t = stack_t;
  if (lanes > kStackLanes) {
    heap_t.assign(lanes + 2, 0);
    t = heap_t.data();
  }
  CiosRows(t, a, b, n, n_prime, lanes);
  FinalSubtract(out, t, t[lanes], n, lanes);
}

void RuntimeSqr(uint64_t* out, const uint64_t* a, const uint64_t* n, uint64_t n_prime,
                size_t lanes) {
  RuntimeMul(out, a, a, n, n_prime, lanes);
}

// Constant-time table read: touches every entry of `table` (kTableSize
// entries of `lanes` lanes) and keeps the one whose index equals `digit`
// under a mask. It runs once per window, so it is vectorised: SSE2 is
// baseline on x86-64 and needs no dispatch.
void SelectEntry(uint64_t* out, const uint64_t* table, size_t lanes, uint32_t digit) {
  uint64_t masks[kTableSize];
  for (size_t e = 0; e < kTableSize; ++e) {
    masks[e] = 0 - static_cast<uint64_t>(e == digit);
  }
  size_t j = 0;
#if defined(__SSE2__)
  for (; j + 2 <= lanes; j += 2) {
    __m128i acc = _mm_setzero_si128();
    for (size_t e = 0; e < kTableSize; ++e) {
      const __m128i entry =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(table + e * lanes + j));
      const __m128i mask = _mm_set1_epi64x(static_cast<long long>(masks[e]));
      acc = _mm_or_si128(acc, _mm_and_si128(entry, mask));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + j), acc);
  }
#endif
  for (; j < lanes; ++j) {
    uint64_t acc = 0;
    for (size_t e = 0; e < kTableSize; ++e) {
      acc |= table[e * lanes + j] & masks[e];
    }
    out[j] = acc;
  }
}

// The 4-bit window of `exponent` starting at bit 4 * w. Windows never
// straddle a 32-bit limb.
uint32_t WindowDigit(const BigUint& exponent, size_t w) {
  const size_t bit = 4 * w;
  const std::vector<uint32_t>& limbs = exponent.limbs();
  return (limbs[bit / 32] >> (bit % 32)) & 0xF;
}

// Points *mul and *sqr at the ADX kernels for `lanes`; false when the CPU
// lacks BMI2/ADX or no ADX kernel has that lane count.
bool AdxKernelsFor([[maybe_unused]] size_t lanes, [[maybe_unused]] MontgomeryContext::MulFn* mul,
                   [[maybe_unused]] MontgomeryContext::SqrFn* sqr) {
#if defined(INDAAS_BIGNUM_HAVE_ADX)
  return MontgomeryContext::KernelAvailable(MontKernel::kAdx) && mont::AdxKernels(lanes, mul, sqr);
#else
  return false;
#endif
}

// The IFMA batch kernel and its constants for `modulus` of `lanes` 64-bit
// lanes, n_prime = -n^-1 mod 2^64; null when the CPU lacks AVX-512F/IFMA or
// no kernel has that size.
std::shared_ptr<const mont::IfmaConstants> IfmaConstantsFor(
    [[maybe_unused]] const BigUint& modulus, [[maybe_unused]] size_t lanes,
    [[maybe_unused]] uint64_t n_prime) {
#if defined(INDAAS_BIGNUM_HAVE_IFMA)
  auto c = std::make_shared<mont::IfmaConstants>();
  if (!MontgomeryContext::KernelAvailable(MontBatchKernel::kIfma) ||
      !mont::IfmaKernel(lanes, &c->limbs, &c->fn)) {
    return nullptr;
  }
  const size_t limbs = c->limbs;
  c->n_prime = n_prime & kMask52;
  const BigUint r = BigUint(1).ShiftLeft(52 * limbs);  // R = 2^(52 limbs)
  for (auto [value, out] : {std::pair{modulus, &c->n}, std::pair{r.Mod(modulus), &c->one},
                            std::pair{r.Mul(r).Mod(modulus), &c->r2}}) {
    out->resize(limbs);
    ToLimbs52(value, out->data(), limbs, 1);
  }
  return c;
#else
  return nullptr;
#endif
}

}  // namespace

const char* MontKernelName(MontKernel kernel) {
  switch (kernel) {
    case MontKernel::kRuntime:
      return "runtime";
    case MontKernel::kAdx:
      return "adx";
  }
  return "unknown";
}

const char* MontBatchKernelName(MontBatchKernel kernel) {
  switch (kernel) {
    case MontBatchKernel::kSerial:
      return "serial";
    case MontBatchKernel::kIfma:
      return "ifma";
  }
  return "unknown";
}

bool MontgomeryContext::KernelAvailable(MontBatchKernel kernel) {
  if (kernel != MontBatchKernel::kIfma) {
    return true;
  }
#if defined(INDAAS_BIGNUM_HAVE_IFMA)
  static const bool has_ifma =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512ifma");
  return has_ifma;
#else
  return false;
#endif
}

MontBatchKernel MontgomeryContext::batch_kernel() const {
  return ifma_ != nullptr ? MontBatchKernel::kIfma : MontBatchKernel::kSerial;
}

bool MontgomeryContext::KernelAvailable(MontKernel kernel) {
  if (kernel != MontKernel::kAdx) {
    return true;
  }
#if defined(INDAAS_BIGNUM_HAVE_ADX)
  static const bool has_adx = __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("adx");
  return has_adx;
#else
  return false;
#endif
}

Result<MontgomeryContext> MontgomeryContext::Create(const BigUint& modulus) {
  MulFn mul;
  SqrFn sqr;
  const bool adx = AdxKernelsFor((modulus.LimbCount() + 1) / 2, &mul, &sqr);
  return CreateWithKernel(modulus, adx ? MontKernel::kAdx : MontKernel::kRuntime);
}

Result<MontgomeryContext> MontgomeryContext::CreateWithKernel(const BigUint& modulus,
                                                              MontKernel kernel) {
  if (!modulus.IsOdd() || modulus.IsOne()) {
    return InvalidArgumentError("Montgomery modulus must be odd and > 1");
  }
  MontgomeryContext ctx;
  ctx.modulus_ = modulus;
  ctx.kernel_ = kernel;
  ctx.lanes_ = (modulus.LimbCount() + 1) / 2;
  bool supported = true;
  switch (kernel) {
    case MontKernel::kRuntime:
      ctx.mul_ = RuntimeMul;
      ctx.sqr_ = RuntimeSqr;
      break;
    case MontKernel::kAdx:
      supported = AdxKernelsFor(ctx.lanes_, &ctx.mul_, &ctx.sqr_);
      break;
  }
  if (!supported) {
    return InvalidArgumentError(std::string("Montgomery kernel ") + MontKernelName(kernel) +
                                " cannot serve a " + std::to_string(ctx.lanes_) +
                                "-lane modulus on this CPU");
  }
  ctx.mod_lanes_.resize(ctx.lanes_);
  ctx.Pack(modulus, ctx.mod_lanes_.data());
  ctx.n_prime_ = 0 - InverseMod64(ctx.mod_lanes_[0]);
  // R = 2^(64 * lanes)
  BigUint r = BigUint(1).ShiftLeft(64 * ctx.lanes_);
  ctx.one_lanes_.resize(ctx.lanes_);
  ctx.Pack(r.Mod(modulus), ctx.one_lanes_.data());
  ctx.r2_lanes_.resize(ctx.lanes_);
  ctx.Pack(r.Mul(r).Mod(modulus), ctx.r2_lanes_.data());
  ctx.ifma_ = IfmaConstantsFor(modulus, ctx.lanes_, ctx.n_prime_);
  return ctx;
}

void MontgomeryContext::Pack(const BigUint& value, uint64_t* out) const {
  const std::vector<uint32_t>& limbs = value.limbs();
  std::fill(out, out + lanes_, 0);
  for (size_t i = 0; i < limbs.size(); ++i) {
    out[i / 2] |= static_cast<uint64_t>(limbs[i]) << (32 * (i % 2));
  }
}

void MontgomeryContext::MulLanes(uint64_t* out, const uint64_t* a, const uint64_t* b) const {
  mul_(out, a, b, mod_lanes_.data(), n_prime_, lanes_);
}

void MontgomeryContext::SqrLanes(uint64_t* out, const uint64_t* a) const {
  sqr_(out, a, mod_lanes_.data(), n_prime_, lanes_);
}

BigUint MontgomeryContext::ToMontgomery(const BigUint& a) const {
  std::vector<uint64_t> lanes(lanes_);
  Pack(a.Mod(modulus_), lanes.data());
  MulLanes(lanes.data(), lanes.data(), r2_lanes_.data());
  return Unpack(lanes.data(), lanes_);
}

BigUint MontgomeryContext::FromMontgomery(const BigUint& a_mont) const {
  return MulMont(a_mont, BigUint(1));
}

BigUint MontgomeryContext::MulMont(const BigUint& a_mont, const BigUint& b_mont) const {
  // Lane kernels need operands < n: a wider input would overrun the lanes,
  // and one in [n, R) could leave the result unreduced.
  std::vector<uint64_t> a(lanes_);
  std::vector<uint64_t> b(lanes_);
  Pack(a_mont < modulus_ ? a_mont : a_mont.Mod(modulus_), a.data());
  Pack(b_mont < modulus_ ? b_mont : b_mont.Mod(modulus_), b.data());
  MulLanes(a.data(), a.data(), b.data());
  return Unpack(a.data(), lanes_);
}

BigUint MontgomeryContext::ModExp(const BigUint& base, const BigUint& exponent) const {
  if (exponent.IsZero()) {
    return BigUint(1).Mod(modulus_);
  }
  const size_t s = lanes_;
  // One workspace: the table, the accumulator and a selected entry; on the
  // stack for moduli up to 2048 bits (32 lanes).
  constexpr size_t kStackWords = (kTableSize + 2) * 32;
  uint64_t stack_ws[kStackWords] = {};
  std::vector<uint64_t> heap_ws;
  uint64_t* table = stack_ws;
  if ((kTableSize + 2) * s > kStackWords) {
    heap_ws.resize((kTableSize + 2) * s);
    table = heap_ws.data();
  }
  uint64_t* acc = table + kTableSize * s;
  uint64_t* entry = acc + s;

  // table[d] = base^d in Montgomery form; table[0] is R mod n.
  std::copy(one_lanes_.begin(), one_lanes_.end(), table);
  Pack(base < modulus_ ? base : base.Mod(modulus_), table + s);
  MulLanes(table + s, table + s, r2_lanes_.data());
  for (size_t d = 2; d < kTableSize; ++d) {
    MulLanes(table + d * s, table + (d - 1) * s, table + s);
  }

  const size_t windows = (exponent.BitLength() + kWindow - 1) / kWindow;
  SelectEntry(acc, table, s, WindowDigit(exponent, windows - 1));
  for (size_t w = windows - 1; w-- > 0;) {
    for (size_t i = 0; i < kWindow; ++i) {
      SqrLanes(acc, acc);
    }
    SelectEntry(entry, table, s, WindowDigit(exponent, w));
    MulLanes(acc, acc, entry);
  }
  // Out of Montgomery form: multiply by plain 1.
  std::fill(entry, entry + s, 0);
  entry[0] = 1;
  MulLanes(acc, acc, entry);
  return Unpack(acc, s);
}

void MontgomeryContext::ModExpBatch(std::span<const BigUint> bases, std::span<BigUint> out,
                                    const BigUint& exponent) const {
  assert(out.size() == bases.size());
  size_t done = 0;
  if (ifma_ != nullptr && !exponent.IsZero()) {
    const size_t windows = (exponent.BitLength() + kWindow - 1) / kWindow;
    std::vector<uint8_t> digits(windows);
    for (size_t w = 0; w < windows; ++w) {
      digits[w] = static_cast<uint8_t>(WindowDigit(exponent, windows - 1 - w));
    }
    // Vertical operands, on the stack.
    constexpr size_t kMaxWords = mont::kIfmaMaxLimbs * mont::kBatchWidth;
    const size_t limbs = ifma_->limbs;
    uint64_t in[kMaxWords];
    uint64_t res[kMaxWords];
    // A kernel call costs 0.9-2 ModExps at 768-2048 bits whatever its
    // lanes hold (bench_micro), so groups of two or more take it, unused
    // lanes raising 0, and a last group of one runs ModExp.
    while (bases.size() - done >= 2) {
      const size_t count = std::min(mont::kBatchWidth, bases.size() - done);
      std::fill(in, in + limbs * mont::kBatchWidth, 0);
      for (size_t v = 0; v < count; ++v) {
        const BigUint& base = bases[done + v];
        ToLimbs52(base < modulus_ ? base : base.Mod(modulus_), in + v, limbs, mont::kBatchWidth);
      }
      ifma_->fn(*ifma_, in, res, digits.data(), windows);
      for (size_t v = 0; v < count; ++v) {
        out[done + v] = FromLimbs52(res + v, limbs, mont::kBatchWidth);
      }
      done += count;
    }
  }
  for (; done < bases.size(); ++done) {
    out[done] = ModExp(bases[done], exponent);
  }
}

}  // namespace indaas
