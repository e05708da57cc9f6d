// Tests for src/crypto/: digest test vectors, SRA commutative cipher
// properties, Paillier correctness and homomorphisms, hash family.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/bignum/prime.h"
#include "src/crypto/commutative.h"
#include "src/crypto/digest.h"
#include "src/crypto/hash_family.h"
#include "src/crypto/paillier.h"
#include "src/util/rng.h"

namespace indaas {
namespace {

// --- Digest test vectors (RFC 1321 / FIPS 180-4) ---

TEST(DigestTest, Md5Vectors) {
  EXPECT_EQ(DigestToHex(Md5("")), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(DigestToHex(Md5("abc")), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(DigestToHex(Md5("message digest")), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(DigestToHex(Md5("abcdefghijklmnopqrstuvwxyz")), "c3fcd3d76192e4007dfb496cca67e13b");
}

TEST(DigestTest, Sha1Vectors) {
  EXPECT_EQ(DigestToHex(Sha1("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(DigestToHex(Sha1("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(DigestToHex(Sha1("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(DigestTest, Sha256Vectors) {
  EXPECT_EQ(DigestToHex(Sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(DigestToHex(Sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(DigestToHex(Sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(DigestTest, MultiBlockMessages) {
  // 448-bit and >512-bit messages exercise padding boundaries.
  std::string s56(56, 'a');
  std::string s64(64, 'a');
  std::string s200(200, 'a');
  EXPECT_NE(DigestToHex(Sha256(s56)), DigestToHex(Sha256(s64)));
  EXPECT_NE(DigestToHex(Sha256(s64)), DigestToHex(Sha256(s200)));
  // One million 'a' — the classic FIPS long vector.
  std::string million(1000000, 'a');
  EXPECT_EQ(DigestToHex(Sha1(million)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
  EXPECT_EQ(DigestToHex(Sha256(million)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(DigestTest, HashBytesDispatch) {
  EXPECT_EQ(HashBytes(HashAlgorithm::kMd5, "abc").size(), 16u);
  EXPECT_EQ(HashBytes(HashAlgorithm::kSha1, "abc").size(), 20u);
  EXPECT_EQ(HashBytes(HashAlgorithm::kSha256, "abc").size(), 32u);
  EXPECT_STREQ(HashAlgorithmName(HashAlgorithm::kSha256), "SHA-256");
}

// --- Commutative cipher ---

class CommutativeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(1);
    auto group = CommutativeGroup::CreateWellKnown(768);
    ASSERT_TRUE(group.ok());
    group_ = new CommutativeGroup(std::move(group).value());
  }
  static void TearDownTestSuite() {
    delete group_;
    group_ = nullptr;
  }
  static const CommutativeGroup* group_;
};

const CommutativeGroup* CommutativeTest::group_ = nullptr;

TEST_F(CommutativeTest, EncryptDecryptRoundTrip) {
  Rng rng(2);
  auto key = CommutativeKey::Generate(*group_, rng);
  ASSERT_TRUE(key.ok());
  BigUint m = group_->HashToElement("libc6 2.13-38", HashAlgorithm::kSha256);
  BigUint c = key->Encrypt(*group_, m);
  EXPECT_NE(c, m);
  EXPECT_EQ(key->Decrypt(*group_, c), m);
}

TEST_F(CommutativeTest, EncryptionCommutes) {
  Rng rng(3);
  auto key_a = CommutativeKey::Generate(*group_, rng);
  auto key_b = CommutativeKey::Generate(*group_, rng);
  ASSERT_TRUE(key_a.ok());
  ASSERT_TRUE(key_b.ok());
  BigUint m = group_->HashToElement("openssl 1.0.1e", HashAlgorithm::kSha256);
  BigUint ab = key_a->Encrypt(*group_, key_b->Encrypt(*group_, m));
  BigUint ba = key_b->Encrypt(*group_, key_a->Encrypt(*group_, m));
  EXPECT_EQ(ab, ba);
}

TEST_F(CommutativeTest, ThreePartyCommutes) {
  Rng rng(4);
  auto k1 = CommutativeKey::Generate(*group_, rng);
  auto k2 = CommutativeKey::Generate(*group_, rng);
  auto k3 = CommutativeKey::Generate(*group_, rng);
  ASSERT_TRUE(k1.ok());
  ASSERT_TRUE(k2.ok());
  ASSERT_TRUE(k3.ok());
  BigUint m = group_->HashToElement("10.1.2.3", HashAlgorithm::kSha256);
  BigUint order_a = k3->Encrypt(*group_, k1->Encrypt(*group_, k2->Encrypt(*group_, m)));
  BigUint order_b = k2->Encrypt(*group_, k3->Encrypt(*group_, k1->Encrypt(*group_, m)));
  EXPECT_EQ(order_a, order_b);
}

TEST_F(CommutativeTest, EqualPlaintextsCollideUnderAllKeys) {
  // The property P-SOP relies on: equality is preserved under encryption.
  Rng rng(5);
  auto key = CommutativeKey::Generate(*group_, rng);
  ASSERT_TRUE(key.ok());
  BigUint m1 = group_->HashToElement("router-10.0.0.1", HashAlgorithm::kSha256);
  BigUint m2 = group_->HashToElement("router-10.0.0.1", HashAlgorithm::kSha256);
  BigUint m3 = group_->HashToElement("router-10.0.0.2", HashAlgorithm::kSha256);
  EXPECT_EQ(key->Encrypt(*group_, m1), key->Encrypt(*group_, m2));
  EXPECT_NE(key->Encrypt(*group_, m1), key->Encrypt(*group_, m3));
}

TEST_F(CommutativeTest, HashToElementIsInGroup) {
  // Squares generate the QR subgroup: x^q must equal 1 (Euler's criterion).
  BigUint m = group_->HashToElement("any component id", HashAlgorithm::kSha256);
  EXPECT_TRUE(group_->Pow(m, group_->q()).IsOne());
  EXPECT_FALSE(m.IsZero());
}

TEST_F(CommutativeTest, DistinctInputsGiveDistinctElements) {
  std::set<std::string> seen;
  for (int i = 0; i < 200; ++i) {
    BigUint m = group_->HashToElement("pkg-" + std::to_string(i), HashAlgorithm::kSha256);
    seen.insert(m.ToHex());
  }
  EXPECT_EQ(seen.size(), 200u);
}

// Fixed inputs and the exact elements they hash to, across the 768/1024-
// bit MODP groups and a 64-bit safe prime (one Montgomery lane), so any
// change to the hash expansion, the reduction or the squaring shows.
TEST(CommutativeGroupTest, HashToElementGoldenValues) {
  struct Golden {
    size_t bits;  // MODP size; 0 for the 64-bit safe prime below
    HashAlgorithm algorithm;
    std::string data;
    std::string element_hex;
  };
  const std::vector<Golden> goldens = {
      {768, HashAlgorithm::kSha256, "libc6 2.13-38",
       "715fa7fb9d58f9a3c167839b2af85e1efaa8cbebfb640601ed8ee95484d8c4b6"
       "9f89f99081a431cc64c92d9a457aacc3150e7c195af62e804c4be604fedae95e"
       "bb25a08915b659560da4c862b2fb12841afe88c6b579d0b87614a3ab5090105a"},
      {768, HashAlgorithm::kMd5, "router-10.0.0.1",
       "baebb9f7e20cc8c638d0146fea9d150255f1e2b003e7ac65a8a15004c6c80c44"
       "68c4d4729c4ef27625ff34787e7049d17ba44973215767a1a8020d987aea4ad2"
       "c764fdc6840057579494697c3c091c496c0b73c6244a06ff2781cd5c86ee1116"},
      {1024, HashAlgorithm::kSha256, "pkg:0||1",
       "e154fdcd1867aa203f6a3aeab0d10f660621510620624475a6fcd030d0ac00a5"
       "e057919f86043d58fc561b81e23c838963fe664c0fbac2cdd8a89a1b47dde574"
       "f77cde7b7ba6d081b0b1a90ec15ef5b72682594dd96d39979cef9e240a4c8d18"
       "017faaa9073b00fb7cb5d69fbfb3461c75a9a159a32f39b6d43f3b86a0aca473"},
      {1024, HashAlgorithm::kSha1, "",
       "f63b988d6e03922963d37bcb6a6a146bab910d0f4ea26d3b58d2cb99ba7a58ad"
       "8bbf33aca73fe779de2c77ecf45827a3675dae01815c85d009dadac6dc048998"
       "b7b5824c96400304e38321c847cda7d59729f3a591c45f5ab3036f495392c9eb"
       "b8d6a70a3f6bf4e07fbc322e2c4900b9e479db575cd09ab7fff7f12376e745a0"},
      {0, HashAlgorithm::kSha256, "openssl 1.0.1e", "d57f01ba71dc6e3f"},
  };
  Rng rng(6);
  const BigUint small_safe = BigUint::FromHex("fe44b05014b8d383").value();
  for (const Golden& golden : goldens) {
    auto group = golden.bits == 0 ? CommutativeGroup::Create(small_safe, rng)
                                  : CommutativeGroup::CreateWellKnown(golden.bits);
    ASSERT_TRUE(group.ok());
    EXPECT_EQ(group->HashToElement(golden.data, golden.algorithm).ToHex(), golden.element_hex)
        << golden.bits << "-bit group, \"" << golden.data << "\"";
  }
}

TEST(CommutativeGroupTest, CreateValidatesSafePrime) {
  Rng rng(6);
  // 23 = 2*11+1 is a safe prime but too small; 15 is not prime at all.
  EXPECT_FALSE(CommutativeGroup::Create(BigUint(23), rng).ok());
  EXPECT_FALSE(CommutativeGroup::Create(BigUint(1).ShiftLeft(20).Add(BigUint(1)), rng).ok());
  auto small_safe = GenerateSafePrime(64, rng);
  ASSERT_TRUE(small_safe.ok());
  EXPECT_TRUE(CommutativeGroup::Create(*small_safe, rng).ok());
}

TEST(CommutativeGroupTest, ElementBytesMatchesModulus) {
  auto group = CommutativeGroup::CreateWellKnown(1024);
  ASSERT_TRUE(group.ok());
  EXPECT_EQ(group->ElementBytes(), 128u);
  EXPECT_EQ(group->bits(), 1024u);
}

// --- Paillier ---

class PaillierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(7);
    auto kp = GeneratePaillierKeyPair(256, rng);
    ASSERT_TRUE(kp.ok());
    keypair_ = new PaillierKeyPair(std::move(kp).value());
  }
  static void TearDownTestSuite() {
    delete keypair_;
    keypair_ = nullptr;
  }
  static const PaillierKeyPair* keypair_;
};

const PaillierKeyPair* PaillierTest::keypair_ = nullptr;

TEST_F(PaillierTest, EncryptDecryptRoundTrip) {
  Rng rng(8);
  for (uint64_t m : {0ULL, 1ULL, 42ULL, 123456789ULL}) {
    auto c = keypair_->pub.Encrypt(BigUint(m), rng);
    ASSERT_TRUE(c.ok());
    auto d = keypair_->priv.Decrypt(keypair_->pub, *c);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->ToUint64(), m);
  }
}

TEST_F(PaillierTest, EncryptionIsProbabilistic) {
  Rng rng(9);
  auto c1 = keypair_->pub.Encrypt(BigUint(5), rng);
  auto c2 = keypair_->pub.Encrypt(BigUint(5), rng);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_NE(*c1, *c2);
}

TEST_F(PaillierTest, AdditiveHomomorphism) {
  Rng rng(10);
  auto c1 = keypair_->pub.Encrypt(BigUint(111), rng);
  auto c2 = keypair_->pub.Encrypt(BigUint(222), rng);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  BigUint c_sum = keypair_->pub.AddCiphertexts(*c1, *c2);
  auto d = keypair_->priv.Decrypt(keypair_->pub, c_sum);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->ToUint64(), 333u);
}

TEST_F(PaillierTest, ScalarMultiplyHomomorphism) {
  Rng rng(11);
  auto c = keypair_->pub.Encrypt(BigUint(7), rng);
  ASSERT_TRUE(c.ok());
  BigUint c_scaled = keypair_->pub.MulPlaintext(*c, BigUint(6));
  auto d = keypair_->priv.Decrypt(keypair_->pub, c_scaled);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->ToUint64(), 42u);
}

TEST_F(PaillierTest, RerandomizePreservesPlaintext) {
  Rng rng(12);
  auto c = keypair_->pub.Encrypt(BigUint(99), rng);
  ASSERT_TRUE(c.ok());
  auto c2 = keypair_->pub.Rerandomize(*c, rng);
  ASSERT_TRUE(c2.ok());
  EXPECT_NE(*c, *c2);
  auto d = keypair_->priv.Decrypt(keypair_->pub, *c2);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->ToUint64(), 99u);
}

TEST_F(PaillierTest, RejectsOversizedPlaintext) {
  Rng rng(13);
  BigUint too_big = keypair_->pub.n().Add(BigUint(1));
  EXPECT_FALSE(keypair_->pub.Encrypt(too_big, rng).ok());
}

TEST(PaillierKeyGenTest, RejectsTinyModulus) {
  Rng rng(14);
  EXPECT_FALSE(GeneratePaillierKeyPair(16, rng).ok());
}

// --- Hash family ---

TEST(HashFamilyTest, DeterministicAcrossInstances) {
  HashFamily f1(42, 8);
  HashFamily f2(42, 8);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(f1.Hash(i, "component"), f2.Hash(i, "component"));
  }
}

TEST(HashFamilyTest, FunctionsAreDistinct) {
  HashFamily family(7, 16);
  std::set<uint64_t> values;
  for (size_t i = 0; i < 16; ++i) {
    values.insert(family.Hash(i, "same input"));
  }
  EXPECT_EQ(values.size(), 16u);
}

TEST(HashFamilyTest, DifferentSeedsDiffer) {
  HashFamily a(1, 4);
  HashFamily b(2, 4);
  EXPECT_NE(a.Hash(0, "x"), b.Hash(0, "x"));
}

TEST(HashFamilyTest, KeyedHashAvalanche) {
  // Flipping one input bit should flip roughly half the output bits.
  uint64_t h1 = KeyedHash64(0, "component-a");
  uint64_t h2 = KeyedHash64(0, "component-b");
  int differing = __builtin_popcountll(h1 ^ h2);
  EXPECT_GT(differing, 16);
  EXPECT_LT(differing, 48);
}

TEST(HashFamilyTest, HandlesAllLengths) {
  // Lengths around the 8-byte lane boundary.
  std::set<uint64_t> seen;
  std::string s;
  for (int len = 0; len <= 24; ++len) {
    seen.insert(KeyedHash64(1, s));
    s.push_back(static_cast<char>('a' + len % 26));
  }
  EXPECT_EQ(seen.size(), 25u);
}

}  // namespace
}  // namespace indaas
