// Unit and property tests for src/bignum/: BigUint arithmetic, Montgomery
// modular exponentiation, modular inverse, and primality.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/bignum/biguint.h"
#include "src/bignum/modular.h"
#include "src/bignum/montgomery.h"
#include "src/bignum/prime.h"
#include "src/util/rng.h"

namespace indaas {
namespace {

// Reference modexp on native integers for cross-checking.
uint64_t NativeModExp(uint64_t base, uint64_t exp, uint64_t mod) {
  __uint128_t result = 1;
  __uint128_t b = base % mod;
  while (exp != 0) {
    if (exp & 1) {
      result = result * b % mod;
    }
    b = b * b % mod;
    exp >>= 1;
  }
  return static_cast<uint64_t>(result);
}

// --- Construction & formatting ---

TEST(BigUintTest, ZeroProperties) {
  BigUint zero;
  EXPECT_TRUE(zero.IsZero());
  EXPECT_FALSE(zero.IsOne());
  EXPECT_FALSE(zero.IsOdd());
  EXPECT_EQ(zero.BitLength(), 0u);
  EXPECT_EQ(zero.ToDecimal(), "0");
  EXPECT_EQ(zero.ToHex(), "0");
  EXPECT_EQ(zero.ToUint64(), 0u);
}

TEST(BigUintTest, FromUint64RoundTrip) {
  for (uint64_t v : {0ULL, 1ULL, 0xFFFFFFFFULL, 0x100000000ULL, 0xFFFFFFFFFFFFFFFFULL}) {
    EXPECT_EQ(BigUint(v).ToUint64(), v);
  }
}

TEST(BigUintTest, DecimalRoundTrip) {
  const char* kCases[] = {"0", "1", "42", "4294967295", "4294967296",
                          "340282366920938463463374607431768211456",
                          "123456789012345678901234567890123456789012345678901234567890"};
  for (const char* text : kCases) {
    auto v = BigUint::FromDecimal(text);
    ASSERT_TRUE(v.ok()) << text;
    EXPECT_EQ(v->ToDecimal(), text);
  }
}

TEST(BigUintTest, HexRoundTrip) {
  const char* kCases[] = {"1", "ff", "deadbeef", "123456789abcdef0123456789abcdef"};
  for (const char* text : kCases) {
    auto v = BigUint::FromHex(text);
    ASSERT_TRUE(v.ok()) << text;
    EXPECT_EQ(v->ToHex(), text);
  }
}

TEST(BigUintTest, HexAccepts0xPrefixAndUppercase) {
  auto a = BigUint::FromHex("0xDEADBEEF");
  auto b = BigUint::FromHex("deadbeef");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(BigUintTest, ParseRejectsGarbage) {
  EXPECT_FALSE(BigUint::FromDecimal("").ok());
  EXPECT_FALSE(BigUint::FromDecimal("12a").ok());
  EXPECT_FALSE(BigUint::FromHex("").ok());
  EXPECT_FALSE(BigUint::FromHex("0x").ok());
  EXPECT_FALSE(BigUint::FromHex("xyz").ok());
}

TEST(BigUintTest, BytesRoundTrip) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    BigUint v = RandomWithBits(1 + rng.NextBelow(200), rng);
    EXPECT_EQ(BigUint::FromBytesBE(v.ToBytesBE()), v);
  }
}

TEST(BigUintTest, BytesPadding) {
  BigUint v(0xABCD);
  auto padded = v.ToBytesBE(8);
  ASSERT_EQ(padded.size(), 8u);
  EXPECT_EQ(padded[0], 0);
  EXPECT_EQ(padded[6], 0xAB);
  EXPECT_EQ(padded[7], 0xCD);
  EXPECT_EQ(BigUint::FromBytesBE(padded), v);
}

// --- Comparison ---

TEST(BigUintTest, Comparison) {
  BigUint a(100);
  BigUint b(200);
  BigUint c = BigUint(1).ShiftLeft(64);
  EXPECT_LT(a, b);
  EXPECT_GT(c, b);
  EXPECT_EQ(a, BigUint(100));
  EXPECT_LE(a, a);
  EXPECT_GE(c, c);
  EXPECT_NE(a, b);
}

// --- Arithmetic vs native (property-style) ---

TEST(BigUintTest, AddSubMulMatchNative) {
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    uint64_t a = rng.Next() >> 33;  // Keep products within 64 bits.
    uint64_t b = rng.Next() >> 33;
    EXPECT_EQ(BigUint(a).Add(BigUint(b)).ToUint64(), a + b);
    EXPECT_EQ(BigUint(a).Mul(BigUint(b)).ToUint64(), a * b);
    uint64_t hi = std::max(a, b);
    uint64_t lo = std::min(a, b);
    EXPECT_EQ(BigUint(hi).Sub(BigUint(lo)).ToUint64(), hi - lo);
  }
}

TEST(BigUintTest, DivModMatchesNative) {
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) {
    uint64_t a = rng.Next();
    uint64_t b = rng.Next() % 1000000 + 1;
    auto dm = BigUint(a).DivMod(BigUint(b));
    ASSERT_TRUE(dm.ok());
    EXPECT_EQ(dm->quotient.ToUint64(), a / b);
    EXPECT_EQ(dm->remainder.ToUint64(), a % b);
  }
}

TEST(BigUintTest, DivModIdentityLargeOperands) {
  // Property: a == q*b + r with r < b, for random multi-limb operands.
  Rng rng(29);
  for (int i = 0; i < 300; ++i) {
    BigUint a = RandomWithBits(64 + rng.NextBelow(512), rng);
    BigUint b = RandomWithBits(32 + rng.NextBelow(256), rng);
    auto dm = a.DivMod(b);
    ASSERT_TRUE(dm.ok());
    EXPECT_LT(dm->remainder, b);
    EXPECT_EQ(dm->quotient.Mul(b).Add(dm->remainder), a);
  }
}

TEST(BigUintTest, DivByZeroIsError) {
  EXPECT_FALSE(BigUint(5).DivMod(BigUint()).ok());
}

TEST(BigUintTest, DivSmallerByLargerIsZero) {
  auto dm = BigUint(5).DivMod(BigUint(100));
  ASSERT_TRUE(dm.ok());
  EXPECT_TRUE(dm->quotient.IsZero());
  EXPECT_EQ(dm->remainder, BigUint(5));
}

TEST(BigUintTest, KnuthAddBackCase) {
  // A classic add-back trigger: dividend = B^2 * (B-1), divisor = B^2 - 1
  // exercised through nearby values; validate via the division identity.
  BigUint base = BigUint(1).ShiftLeft(32);
  BigUint b_sq = base.Mul(base);
  BigUint dividend = b_sq.Mul(base.Sub(BigUint(1)));
  BigUint divisor = b_sq.Sub(BigUint(1));
  auto dm = dividend.DivMod(divisor);
  ASSERT_TRUE(dm.ok());
  EXPECT_EQ(dm->quotient.Mul(divisor).Add(dm->remainder), dividend);
  EXPECT_LT(dm->remainder, divisor);
}

TEST(BigUintTest, ShiftRoundTrip) {
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    BigUint v = RandomWithBits(1 + rng.NextBelow(300), rng);
    size_t shift = rng.NextBelow(150);
    EXPECT_EQ(v.ShiftLeft(shift).ShiftRight(shift), v);
  }
}

TEST(BigUintTest, ShiftLeftMultipliesByPowerOfTwo) {
  EXPECT_EQ(BigUint(3).ShiftLeft(4).ToUint64(), 48u);
  EXPECT_EQ(BigUint(1).ShiftLeft(100).BitLength(), 101u);
}

TEST(BigUintTest, BitAccess) {
  BigUint v(0b1010);
  EXPECT_FALSE(v.Bit(0));
  EXPECT_TRUE(v.Bit(1));
  EXPECT_FALSE(v.Bit(2));
  EXPECT_TRUE(v.Bit(3));
  EXPECT_FALSE(v.Bit(100));
}

TEST(BigUintTest, MulCommutativeAssociativeDistributive) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    BigUint a = RandomWithBits(128, rng);
    BigUint b = RandomWithBits(96, rng);
    BigUint c = RandomWithBits(160, rng);
    EXPECT_EQ(a.Mul(b), b.Mul(a));
    EXPECT_EQ(a.Mul(b).Mul(c), a.Mul(b.Mul(c)));
    EXPECT_EQ(a.Mul(b.Add(c)), a.Mul(b).Add(a.Mul(c)));
  }
}

// --- Modular arithmetic ---

TEST(ModularTest, GcdKnownValues) {
  EXPECT_EQ(Gcd(BigUint(12), BigUint(18)).ToUint64(), 6u);
  EXPECT_EQ(Gcd(BigUint(17), BigUint(5)).ToUint64(), 1u);
  EXPECT_EQ(Gcd(BigUint(0), BigUint(7)).ToUint64(), 7u);
  EXPECT_EQ(Gcd(BigUint(7), BigUint(0)).ToUint64(), 7u);
}

TEST(ModularTest, LcmKnownValues) {
  EXPECT_EQ(Lcm(BigUint(4), BigUint(6)).ToUint64(), 12u);
  EXPECT_TRUE(Lcm(BigUint(0), BigUint(5)).IsZero());
}

TEST(ModularTest, ModInverseProperty) {
  Rng rng(41);
  BigUint m(1000000007);  // prime
  for (int i = 0; i < 200; ++i) {
    BigUint a(rng.Next() % 1000000006 + 1);
    auto inv = ModInverse(a, m);
    ASSERT_TRUE(inv.ok());
    EXPECT_TRUE(ModMul(a, *inv, m).IsOne());
  }
}

TEST(ModularTest, ModInverseLargeModulus) {
  Rng rng(43);
  auto p = WellKnownSafePrime(768);
  ASSERT_TRUE(p.ok());
  for (int i = 0; i < 10; ++i) {
    BigUint a = RandomBelow(*p, rng);
    if (a.IsZero()) {
      continue;
    }
    auto inv = ModInverse(a, *p);
    ASSERT_TRUE(inv.ok());
    EXPECT_TRUE(ModMul(a, *inv, *p).IsOne());
  }
}

TEST(ModularTest, ModInverseNonCoprimeFails) {
  EXPECT_FALSE(ModInverse(BigUint(6), BigUint(9)).ok());
  EXPECT_FALSE(ModInverse(BigUint(4), BigUint(1)).ok());
}

TEST(ModularTest, ModExpMatchesNative) {
  Rng rng(47);
  for (int i = 0; i < 300; ++i) {
    uint64_t base = rng.Next() % 1000000;
    uint64_t exp = rng.Next() % 100000;
    uint64_t mod = rng.Next() % 1000000 + 2;
    auto got = ModExp(BigUint(base), BigUint(exp), BigUint(mod));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->ToUint64(), NativeModExp(base, exp, mod)) << base << "^" << exp << " % " << mod;
  }
}

TEST(ModularTest, ModExpEdgeCases) {
  auto r1 = ModExp(BigUint(5), BigUint(0), BigUint(7));
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->IsOne());
  auto r2 = ModExp(BigUint(5), BigUint(3), BigUint(1));
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->IsZero());
  EXPECT_FALSE(ModExp(BigUint(5), BigUint(3), BigUint(0)).ok());
}

TEST(ModularTest, ModSubWrapsCorrectly) {
  BigUint m(100);
  EXPECT_EQ(ModSub(BigUint(10), BigUint(30), m).ToUint64(), 80u);
  EXPECT_EQ(ModSub(BigUint(30), BigUint(10), m).ToUint64(), 20u);
}

TEST(MontgomeryTest, RejectsEvenModulus) {
  EXPECT_FALSE(MontgomeryContext::Create(BigUint(100)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigUint(1)).ok());
}

TEST(MontgomeryTest, RoundTripConversion) {
  Rng rng(53);
  auto ctx = MontgomeryContext::Create(BigUint(1000000007));
  ASSERT_TRUE(ctx.ok());
  for (int i = 0; i < 100; ++i) {
    BigUint a(rng.Next() % 1000000007);
    EXPECT_EQ(ctx->FromMontgomery(ctx->ToMontgomery(a)), a);
  }
}

TEST(MontgomeryTest, MulMatchesPlainModMul) {
  Rng rng(59);
  auto p = WellKnownSafePrime(768);
  ASSERT_TRUE(p.ok());
  auto ctx = MontgomeryContext::Create(*p);
  ASSERT_TRUE(ctx.ok());
  for (int i = 0; i < 50; ++i) {
    BigUint a = RandomBelow(*p, rng);
    BigUint b = RandomBelow(*p, rng);
    BigUint got = ctx->FromMontgomery(ctx->MulMont(ctx->ToMontgomery(a), ctx->ToMontgomery(b)));
    EXPECT_EQ(got, a.Mul(b).Mod(*p));
  }
}

// Inputs >= n, including ones with more limbs than the modulus, are reduced
// first: the results equal those of the reduced inputs and are < n.
TEST(MontgomeryTest, InputsAtOrAboveModulusAreReduced) {
  auto small = MontgomeryContext::Create(BigUint(1000000007));
  ASSERT_TRUE(small.ok());
  const BigUint& n = small->modulus();
  const BigUint wide = BigUint(1).ShiftLeft(80);  // more limbs than the modulus
  BigUint got = small->FromMontgomery(wide);
  EXPECT_EQ(got, small->FromMontgomery(wide.Mod(n)));
  EXPECT_EQ(small->ToMontgomery(got), wide.Mod(n));
  EXPECT_EQ(small->MulMont(wide, wide), small->MulMont(wide.Mod(n), wide.Mod(n)));
  const BigUint lane_max(UINT64_MAX);  // >= n but fits the one lane
  EXPECT_EQ(small->MulMont(lane_max, lane_max), small->MulMont(lane_max.Mod(n), lane_max.Mod(n)));
  EXPECT_LT(small->MulMont(lane_max, lane_max), n);

  // A 16-lane modulus near R/2 (the ADX kernel's size where the CPU has
  // it); R - 1 is >= n.
  const BigUint half = BigUint(1).ShiftLeft(1023).Add(BigUint(1));
  auto ctx = MontgomeryContext::Create(half);
  ASSERT_TRUE(ctx.ok());
  const BigUint all_ones = BigUint(1).ShiftLeft(1024).Sub(BigUint(1));
  const BigUint reduced = all_ones.Mod(half);
  BigUint square = ctx->MulMont(all_ones, all_ones);
  EXPECT_LT(square, half);
  EXPECT_EQ(square, ctx->MulMont(reduced, reduced));
  EXPECT_EQ(ctx->FromMontgomery(all_ones), ctx->FromMontgomery(reduced));
}

TEST(MontgomeryTest, FermatLittleTheorem) {
  // a^(p-1) = 1 mod p for prime p — a strong end-to-end check of ModExp.
  Rng rng(61);
  auto p = WellKnownSafePrime(1024);
  ASSERT_TRUE(p.ok());
  auto ctx = MontgomeryContext::Create(*p);
  ASSERT_TRUE(ctx.ok());
  BigUint p_minus_1 = p->Sub(BigUint(1));
  for (int i = 0; i < 5; ++i) {
    BigUint a = RandomBelow(p_minus_1, rng).Add(BigUint(1));
    EXPECT_TRUE(ctx->ModExp(a, p_minus_1).IsOne());
  }
}

// ModExpBatch returns ModExp's results byte for byte, whichever batch kernel
// the CPU and modulus size dispatch to: the four MODP sizes, a 512-bit odd
// modulus (always the serial loop), and 19 bases (two full groups of eight
// and a tail of three).
TEST(MontgomeryTest, ModExpBatchEqualsModExp) {
  Rng rng(67);
  std::vector<BigUint> moduli;
  for (size_t bits : {768, 1024, 1536, 2048}) {
    moduli.push_back(WellKnownSafePrime(bits).value());
  }
  moduli.push_back(RandomWithBits(512, rng).Add(BigUint(1)).ShiftLeft(1).Add(BigUint(1)));
  for (const BigUint& n : moduli) {
    auto ctx = MontgomeryContext::Create(n);
    ASSERT_TRUE(ctx.ok());
    std::vector<BigUint> bases;
    for (int i = 0; i < 19; ++i) {
      bases.push_back(RandomBelow(n, rng));
    }
    const BigUint exponent = RandomBelow(n, rng);
    std::vector<BigUint> out(bases.size());
    ctx->ModExpBatch(bases, out, exponent);
    for (size_t i = 0; i < bases.size(); ++i) {
      EXPECT_EQ(out[i], ctx->ModExp(bases[i], exponent))
          << n.BitLength() << "-bit modulus, " << MontBatchKernelName(ctx->batch_kernel())
          << " kernel, index " << i;
    }
  }
}

// --- Primality ---

TEST(PrimeTest, SmallKnownPrimesAndComposites) {
  Rng rng(67);
  for (uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 97ULL, 251ULL, 65537ULL, 1000000007ULL}) {
    EXPECT_TRUE(IsProbablePrime(BigUint(p), rng)) << p;
  }
  for (uint64_t c : {0ULL, 1ULL, 4ULL, 100ULL, 65539ULL * 3, 1000000007ULL * 3}) {
    EXPECT_FALSE(IsProbablePrime(BigUint(c), rng)) << c;
  }
}

TEST(PrimeTest, CarmichaelNumbersRejected) {
  Rng rng(71);
  // Carmichael numbers fool Fermat tests but not Miller–Rabin.
  for (uint64_t c : {561ULL, 1105ULL, 1729ULL, 2465ULL, 2821ULL, 6601ULL, 8911ULL}) {
    EXPECT_FALSE(IsProbablePrime(BigUint(c), rng)) << c;
  }
}

TEST(PrimeTest, WellKnownSafePrimesAreSafePrimes) {
  Rng rng(73);
  for (size_t bits : {768u, 1024u}) {
    auto p = WellKnownSafePrime(bits);
    ASSERT_TRUE(p.ok()) << bits;
    EXPECT_EQ(p->BitLength(), bits);
    EXPECT_TRUE(IsProbablePrime(*p, rng, 8)) << bits;
    BigUint q = p->Sub(BigUint(1)).ShiftRight(1);
    EXPECT_TRUE(IsProbablePrime(q, rng, 8)) << bits << " (Sophie Germain q)";
  }
}

TEST(PrimeTest, LargerWellKnownPrimesParse) {
  for (size_t bits : {1536u, 2048u}) {
    auto p = WellKnownSafePrime(bits);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->BitLength(), bits);
  }
}

TEST(PrimeTest, UnsupportedSizeFails) {
  EXPECT_FALSE(WellKnownSafePrime(512).ok());
}

TEST(PrimeTest, GeneratePrimeHasRequestedBits) {
  Rng rng(79);
  for (size_t bits : {16u, 32u, 64u, 128u}) {
    auto p = GeneratePrime(bits, rng);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->BitLength(), bits);
    EXPECT_TRUE(IsProbablePrime(*p, rng));
  }
}

TEST(PrimeTest, GenerateSafePrimeStructure) {
  Rng rng(83);
  auto p = GenerateSafePrime(32, rng);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->BitLength(), 32u);
  BigUint q = p->Sub(BigUint(1)).ShiftRight(1);
  EXPECT_TRUE(IsProbablePrime(q, rng));
}

TEST(PrimeTest, RandomBelowIsBelow) {
  Rng rng(89);
  BigUint bound = RandomWithBits(100, rng);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(RandomBelow(bound, rng), bound);
  }
}

TEST(PrimeTest, RandomWithBitsExact) {
  Rng rng(97);
  for (size_t bits : {1u, 7u, 32u, 33u, 100u, 1024u}) {
    EXPECT_EQ(RandomWithBits(bits, rng).BitLength(), bits);
  }
}

}  // namespace
}  // namespace indaas
