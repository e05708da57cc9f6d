#include "src/crypto/commutative.h"

#include "src/bignum/modular.h"
#include "src/bignum/prime.h"
#include "src/util/strings.h"

namespace indaas {

Result<CommutativeGroup> CommutativeGroup::CreateWellKnown(size_t bits) {
  INDAAS_ASSIGN_OR_RETURN(BigUint p, WellKnownSafePrime(bits));
  CommutativeGroup group;
  group.p_ = p;
  group.q_ = p.Sub(BigUint(1)).ShiftRight(1);
  INDAAS_ASSIGN_OR_RETURN(MontgomeryContext ctx, MontgomeryContext::Create(p));
  group.ctx_ = std::make_shared<const MontgomeryContext>(std::move(ctx));
  return group;
}

Result<CommutativeGroup> CommutativeGroup::Create(const BigUint& safe_prime, Rng& rng) {
  if (safe_prime.BitLength() < 16) {
    return InvalidArgumentError("CommutativeGroup: prime too small (need >= 16 bits)");
  }
  BigUint q = safe_prime.Sub(BigUint(1)).ShiftRight(1);
  if (!IsProbablePrime(safe_prime, rng, 16) || !IsProbablePrime(q, rng, 16)) {
    return InvalidArgumentError("CommutativeGroup: modulus is not a safe prime");
  }
  CommutativeGroup group;
  group.p_ = safe_prime;
  group.q_ = std::move(q);
  INDAAS_ASSIGN_OR_RETURN(MontgomeryContext ctx, MontgomeryContext::Create(safe_prime));
  group.ctx_ = std::make_shared<const MontgomeryContext>(std::move(ctx));
  return group;
}

BigUint CommutativeGroup::HashToElement(std::string_view data, HashAlgorithm algorithm) const {
  // Expand the digest with counter-mode re-hashing until we cover the modulus
  // size, so the pre-square value is (nearly) uniform in [0, p).
  std::vector<uint8_t> material;
  size_t need = ElementBytes() + 8;  // Oversample to keep the mod-p bias tiny.
  uint32_t counter = 0;
  while (material.size() < need) {
    std::string block(data);
    block.push_back(static_cast<char>(counter));
    std::vector<uint8_t> digest = HashBytes(algorithm, block);
    material.insert(material.end(), digest.begin(), digest.end());
    ++counter;
  }
  material.resize(need);
  BigUint x = BigUint::FromBytesBE(material).Mod(p_);
  if (x.IsZero()) {
    x = BigUint(4);  // Arbitrary QR fallback for the measure-zero case.
  }
  // Square into the quadratic-residue subgroup of order q on the shared
  // Montgomery context, x R times x times R^-1, instead of a product and a
  // long division.
  return ctx_->MulMont(ctx_->ToMontgomery(x), x);
}

BigUint CommutativeGroup::Pow(const BigUint& base, const BigUint& exponent) const {
  return ctx_->ModExp(base, exponent);
}

void CommutativeGroup::PowBatch(std::span<const BigUint> bases, std::span<BigUint> out,
                                const BigUint& exponent) const {
  ctx_->ModExpBatch(bases, out, exponent);
}

Result<CommutativeKey> CommutativeKey::Generate(const CommutativeGroup& group, Rng& rng) {
  const BigUint& q = group.q();
  for (int attempts = 0; attempts < 1000; ++attempts) {
    BigUint e = RandomBelow(q.Sub(BigUint(2)), rng).Add(BigUint(2));  // [2, q-1]
    auto d = ModInverse(e, q);
    if (d.ok()) {
      return CommutativeKey(std::move(e), std::move(d).value());
    }
  }
  return InternalError("CommutativeKey::Generate: could not find invertible exponent");
}

BigUint CommutativeKey::Encrypt(const CommutativeGroup& group, const BigUint& element) const {
  return group.Pow(element, e_);
}

void CommutativeKey::EncryptBatch(const CommutativeGroup& group,
                                  std::span<const BigUint> elements,
                                  std::span<BigUint> out) const {
  group.PowBatch(elements, out, e_);
}

BigUint CommutativeKey::Decrypt(const CommutativeGroup& group, const BigUint& ciphertext) const {
  return group.Pow(ciphertext, d_);
}

}  // namespace indaas
