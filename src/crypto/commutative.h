// Commutative encryption for the P-SOP private set intersection cardinality
// protocol (Vaidya–Clifton / Agrawal et al., built on Pohlig–Hellman / SRA
// "Mental Poker" exponentiation ciphers).
//
// All parties share a safe prime p = 2q + 1. Plaintext elements are hashed
// and mapped into the quadratic-residue subgroup of Z_p^* (prime order q), so
// every party's secret exponent e in [2, q-1] is invertible modulo q and
// encryption Enc_e(m) = m^e mod p commutes across parties:
//   Enc_a(Enc_b(m)) = m^(a·b) = Enc_b(Enc_a(m)).

#ifndef SRC_CRYPTO_COMMUTATIVE_H_
#define SRC_CRYPTO_COMMUTATIVE_H_

#include <memory>
#include <span>
#include <string_view>

#include "src/bignum/biguint.h"
#include "src/bignum/montgomery.h"
#include "src/crypto/digest.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace indaas {

// Domain parameters shared by all protocol parties: the safe prime p and the
// subgroup order q = (p-1)/2.
class CommutativeGroup {
 public:
  // Uses the well-known MODP safe prime of `bits` (768/1024/1536/2048).
  static Result<CommutativeGroup> CreateWellKnown(size_t bits);

  // Uses a caller-supplied safe prime (e.g. from GenerateSafePrime for small
  // test sizes). Verifies the safe-prime structure probabilistically.
  static Result<CommutativeGroup> Create(const BigUint& safe_prime, Rng& rng);

  const BigUint& p() const { return p_; }
  const BigUint& q() const { return q_; }
  size_t bits() const { return p_.BitLength(); }

  // Size in bytes of one group element on the wire.
  size_t ElementBytes() const { return (p_.BitLength() + 7) / 8; }

  // Hashes arbitrary data into the QR subgroup: (H(data) mod p)^2 mod p.
  // Deterministic, so equal inputs map to equal group elements across parties.
  BigUint HashToElement(std::string_view data, HashAlgorithm algorithm) const;

  // Exponentiation modulo p (shared Montgomery context).
  BigUint Pow(const BigUint& base, const BigUint& exponent) const;

  // out[i] = Pow(bases[i], exponent), as MontgomeryContext::ModExpBatch:
  // sizes equal, out may be bases, results identical to Pow's.
  void PowBatch(std::span<const BigUint> bases, std::span<BigUint> out,
                const BigUint& exponent) const;

 private:
  CommutativeGroup() = default;

  BigUint p_;
  BigUint q_;
  std::shared_ptr<const MontgomeryContext> ctx_;
};

// One party's keypair: encryption exponent e and its inverse d modulo q.
class CommutativeKey {
 public:
  // Samples e uniformly from [2, q-1] with gcd(e, q) = 1.
  static Result<CommutativeKey> Generate(const CommutativeGroup& group, Rng& rng);

  // Enc(m) = m^e mod p. `element` must already be a group element.
  BigUint Encrypt(const CommutativeGroup& group, const BigUint& element) const;

  // out[i] = Encrypt(group, elements[i]) for a whole batch under this one
  // key (CommutativeGroup::PowBatch); out may be elements.
  void EncryptBatch(const CommutativeGroup& group, std::span<const BigUint> elements,
                    std::span<BigUint> out) const;

  // Dec(c) = c^d mod p; inverse of Encrypt within the QR subgroup.
  BigUint Decrypt(const CommutativeGroup& group, const BigUint& ciphertext) const;

  const BigUint& exponent() const { return e_; }

 private:
  CommutativeKey(BigUint e, BigUint d) : e_(std::move(e)), d_(std::move(d)) {}

  BigUint e_;
  BigUint d_;
};

}  // namespace indaas

#endif  // SRC_CRYPTO_COMMUTATIVE_H_
