// P-SOP: private set intersection cardinality over commutative encryption
// (Vaidya–Clifton, as adopted by the paper in §4.2.2/§6.1.2).
//
// All k parties form a logical ring and share a hash function and a
// commutative-encryption group. Each party hashes its (multiset-
// disambiguated) elements into the group, encrypts them under its own key,
// permutes them, and forwards to its ring successor; after k hops every
// dataset is encrypted under *all* keys, at which point equal plaintexts have
// equal ciphertexts and the parties can count |∩ S_i| and |∪ S_i| — hence the
// Jaccard similarity — without seeing each other's elements.
//
// The simulation runs all parties in-process but performs every cryptographic
// operation for real and accounts every byte that would cross the network.

#ifndef SRC_PIA_PSOP_H_
#define SRC_PIA_PSOP_H_

#include <string>
#include <vector>

#include "src/crypto/commutative.h"
#include "src/crypto/digest.h"
#include "src/pia/protocol_stats.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace indaas {

struct PsopOptions {
  HashAlgorithm hash = HashAlgorithm::kSha256;
  // Group size in bits for CommutativeGroup::CreateWellKnown. The paper's
  // prototype used 1024-bit keys; smaller sizes speed up tests.
  size_t group_bits = 1024;
  uint64_t seed = 1;
};

struct PsopResult {
  size_t intersection = 0;  // |S_0 ∩ ... ∩ S_{k-1}| (multiset-aware)
  size_t union_size = 0;    // |S_0 ∪ ... ∪ S_{k-1}|
  double jaccard = 0.0;     // intersection / union
  std::vector<PartyStats> party_stats;  // one entry per party
  // Degraded-session marking (socket-backed rings with peer-failure
  // recovery enabled): the original ring indices that were ejected after a
  // mid-session fault, and how many ring reformations it took to finish.
  // An empty `excluded` list is a pristine full-ring result. A degraded
  // result's counts cover only the surviving parties — it is a *partial*
  // audit and every consumer must surface the exclusions, never present it
  // as a full k-party answer.
  std::vector<uint32_t> excluded;
  uint32_t recovery_attempts = 0;

  bool degraded() const { return !excluded.empty(); }
};

// Multiset disambiguation (§4.2.2): occurrence t of element e becomes
// "e||t", making every party's elements unique while preserving multiset
// intersection semantics. Shared with the socket-backed peers so both
// engines hash identical plaintexts.
std::vector<std::string> DisambiguateMultiset(const std::vector<std::string>& elements);

// The per-element crypto of a ring party, shared by both engines. Each
// element is a full modexp under the party's one key, so the elements go
// in chunks of eight to CommutativeKey::EncryptBatch (the IFMA batch kernel
// where the CPU has it), and more than one chunk is spread over the shared
// ComputePool() (a single chunk runs inline); element i's result lands at
// index i, so the output is the same as a serial loop's. Callers shuffle
// and meter afterwards, on their own thread, which keeps RNG draws and
// counters unchanged.
//
// Phase 0: hash each element into the group and encrypt it with `key`.
std::vector<BigUint> HashAndEncrypt(const CommutativeGroup& group, const CommutativeKey& key,
                                    const std::vector<std::string>& elements,
                                    HashAlgorithm hash);
// A ring hop: re-encrypt every element in place with `key`.
void EncryptInPlace(const CommutativeGroup& group, const CommutativeKey& key,
                    std::vector<BigUint>& elements);

// Runs the protocol over the parties' datasets (one vector<string> each).
// Requires >= 2 parties; datasets may contain duplicates (handled via the
// e||1..e||t disambiguation from §4.2.2).
Result<PsopResult> RunPsop(const std::vector<std::vector<std::string>>& datasets,
                           const PsopOptions& options = {});

// MinHash-compressed variant (§4.2.4): each party first reduces its set to an
// m-element MinHash sample, then runs P-SOP on the samples; Jaccard is
// estimated as |∩| / m. Far cheaper for large sets, at accuracy O(1/sqrt(m)).
// Sampling is the arg-min of the src/sketch register hashes, so the sampled
// elements — like the registers themselves — are identical across runs and
// hosts for a given seed (tests/pia_test.cc cross-checks the two).
Result<PsopResult> RunPsopWithMinHash(const std::vector<std::vector<std::string>>& datasets,
                                      size_t m, const PsopOptions& options = {});

// Seed every sketch-exchange party derives from the protocol seed; shared
// between the in-process engine below and the socket-backed peers
// (src/svc/pia_peer.cc) so both produce byte-identical registers.
uint64_t PsopSketchSeed(uint64_t protocol_seed);

// Per-hop framing overhead the in-process simulation charges on top of the
// raw register bytes (origin + length header; the socket engine accounts
// real frame bytes instead).
inline constexpr size_t kSketchHopOverheadBytes = 8;

// Sketch-exchange variant (DESIGN.md §8): each party compresses its set to a
// sketch_k-register MinHash sketch and the ring all-gathers the sketches in
// k-1 hops — no commutative encryption at all. Jaccard is estimated as the
// fraction of registers on which *all* parties agree (the k-way estimator;
// for two parties this is the classic MinHash estimate, error ~1/sqrt(k)).
// Bytes on the wire are fixed at ~4*sketch_k per party per hop regardless of
// set size. Privacy is weaker than encrypted P-SOP: peers see one-way hashed
// registers rather than ciphertexts, which leaks membership to an adversary
// who can enumerate the element universe — the report flags the mode
// accordingly. Result fields: intersection = #agreeing registers,
// union_size = sketch_k, jaccard = intersection / sketch_k.
Result<PsopResult> RunPsopWithSketch(const std::vector<std::vector<std::string>>& datasets,
                                     uint32_t sketch_k, const PsopOptions& options = {});

}  // namespace indaas

#endif  // SRC_PIA_PSOP_H_
