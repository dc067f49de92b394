// Unit and property tests for the crypto substrate: SHA-256 against FIPS
// vectors, Merkle roots, Schnorr sign/verify algebra, wallets.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include <map>

#include "common/job_queue.h"
#include "crypto/merkle.h"
#include "crypto/merkle_map.h"
#include "crypto/schnorr.h"
#include "crypto/set_hash.h"
#include "crypto/sha256.h"
#include "crypto/wallet.h"

namespace mv::crypto {
namespace {

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, EmptyStringVector) {
  EXPECT_EQ(to_hex(sha256(std::string_view{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(to_hex(sha256(std::string_view{"abc"})),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  EXPECT_EQ(to_hex(sha256(std::string_view{
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"})),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (const char c : msg) h.update(std::string_view(&c, 1));
  EXPECT_EQ(h.finalize(), sha256(std::string_view{msg}));
}

TEST(Sha256, ReusableAfterFinalize) {
  // finalize() resets the hasher; the same instance must produce correct
  // digests for subsequent, independent messages (historically it silently
  // hashed garbage on reuse).
  Sha256 h;
  h.update(std::string_view{"abc"});
  EXPECT_EQ(to_hex(h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(h.finalize()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  h.update(std::string_view{"abc"});
  EXPECT_EQ(h.finalize(), sha256(std::string_view{"abc"}));
}

TEST(Sha256, HashWriterMatchesByteWriterBytes) {
  // HashWriter streams the ByteWriter wire format; digests must agree.
  ByteWriter bw;
  bw.u8(7);
  bw.u32(0xdeadbeef);
  bw.u64(0x0123456789abcdefULL);
  bw.str("metaverse");
  bw.bytes(Bytes{1, 2, 3});
  HashWriter hw;
  hw.u8(7);
  hw.u32(0xdeadbeef);
  hw.u64(0x0123456789abcdefULL);
  hw.str("metaverse");
  hw.bytes(Bytes{1, 2, 3});
  EXPECT_EQ(hw.digest(), sha256(bw.take()));
}

TEST(Sha256, PrefixIsStable) {
  const Digest d = sha256(std::string_view{"abc"});
  EXPECT_EQ(digest_prefix64(d), digest_prefix64(sha256(std::string_view{"abc"})));
  EXPECT_NE(digest_prefix64(d), digest_prefix64(sha256(std::string_view{"abd"})));
}

// ---------------------------------------------------------------- Merkle

std::vector<Digest> make_leaves(std::size_t n) {
  std::vector<Digest> leaves;
  leaves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    leaves.push_back(sha256(std::string_view{"leaf" + std::to_string(i)}));
  }
  return leaves;
}

TEST(Merkle, EmptyTreeZeroRoot) { EXPECT_EQ(merkle_root({}), Digest{}); }

TEST(Merkle, SingleLeafRootIsLeaf) {
  const auto leaves = make_leaves(1);
  EXPECT_EQ(merkle_root(leaves), leaves[0]);
}

TEST(Merkle, RootChangesWithAnyLeaf) {
  auto leaves = make_leaves(8);
  const Digest before = merkle_root(leaves);
  leaves[3][0] ^= 0xff;
  EXPECT_NE(merkle_root(leaves), before);
}

// merkle_root folds the levels in place. The cases below check it against a
// model that keeps every level and walks audit paths up them: each leaf's
// path must climb to merkle_root's answer, so the fold commits to exactly
// that tree (odd-node duplication, 0x01 interior domain), and a wrong leaf
// or a flipped sibling must not.
Digest interior(const Digest& left, const Digest& right) {
  const std::uint8_t domain = 0x01;
  Sha256 h;
  h.update(std::span<const std::uint8_t>(&domain, 1));
  h.update(std::span<const std::uint8_t>(left.data(), left.size()));
  h.update(std::span<const std::uint8_t>(right.data(), right.size()));
  return h.finalize();
}

struct AuditStep {
  Digest sibling;
  bool sibling_on_left = false;
};

std::vector<AuditStep> audit_path(std::vector<Digest> level, std::size_t index) {
  std::vector<AuditStep> path;
  while (level.size() > 1) {
    const std::size_t last = level.size() - 1;
    const bool odd = index % 2 == 1;
    path.push_back({level[odd ? index - 1 : std::min(index + 1, last)], odd});
    std::vector<Digest> up;
    for (std::size_t i = 0; i < level.size(); i += 2) {
      up.push_back(interior(level[i], level[std::min(i + 1, last)]));
    }
    level = std::move(up);
    index /= 2;
  }
  return path;
}

Digest climb(Digest node, const std::vector<AuditStep>& path) {
  for (const auto& step : path) {
    node = step.sibling_on_left ? interior(step.sibling, node)
                                : interior(node, step.sibling);
  }
  return node;
}

class MerkleProofTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleProofTest, AllLeavesVerify) {
  const std::size_t n = GetParam();
  const auto leaves = make_leaves(n);
  const Digest root = merkle_root(leaves);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(climb(leaves[i], audit_path(leaves, i)), root)
        << "leaf " << i << " of " << n;
  }
}

TEST_P(MerkleProofTest, WrongLeafRejected) {
  const std::size_t n = GetParam();
  const auto leaves = make_leaves(n);
  const Digest root = merkle_root(leaves);
  const Digest bogus = sha256(std::string_view{"not-a-leaf"});
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NE(climb(bogus, audit_path(leaves, i)), root);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleProofTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 33));

TEST(Merkle, TamperedProofRejected) {
  const auto leaves = make_leaves(8);
  auto path = audit_path(leaves, 2);
  path[1].sibling[5] ^= 0x01;
  EXPECT_NE(climb(leaves[2], path), merkle_root(leaves));
}

// ---------------------------------------------------------------- Schnorr

TEST(Schnorr, PowModKnownValues) {
  EXPECT_EQ(pow_mod(2, 10, 1'000'000'007ULL), 1024u);
  EXPECT_EQ(pow_mod(3, 0, 97), 1u);
  EXPECT_EQ(mul_mod(kFieldP - 1, kFieldP - 1, kFieldP), 1u);  // (-1)^2 = 1
}

TEST(Schnorr, SignVerifyRoundTrip) {
  Rng rng(42);
  const KeyPair kp = generate_keypair(rng);
  const std::string msg = "register data-collection activity";
  const auto m = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  const Signature sig = sign(kp.priv, m, rng);
  EXPECT_TRUE(verify(kp.pub, m, sig));
}

TEST(Schnorr, WrongKeyRejected) {
  Rng rng(43);
  const KeyPair kp1 = generate_keypair(rng);
  const KeyPair kp2 = generate_keypair(rng);
  const Bytes msg{1, 2, 3, 4};
  const Signature sig = sign(kp1.priv, msg, rng);
  EXPECT_TRUE(verify(kp1.pub, msg, sig));
  EXPECT_FALSE(verify(kp2.pub, msg, sig));
}

TEST(Schnorr, TamperedMessageRejected) {
  Rng rng(44);
  const KeyPair kp = generate_keypair(rng);
  const Bytes msg{1, 2, 3, 4};
  const Signature sig = sign(kp.priv, msg, rng);
  const Bytes other{1, 2, 3, 5};
  EXPECT_FALSE(verify(kp.pub, other, sig));
}

TEST(Schnorr, TamperedSignatureRejected) {
  Rng rng(45);
  const KeyPair kp = generate_keypair(rng);
  const Bytes msg{9, 9, 9};
  Signature sig = sign(kp.priv, msg, rng);
  sig.s = (sig.s + 1) % kGroupQ;
  EXPECT_FALSE(verify(kp.pub, msg, sig));
}

TEST(Schnorr, MalformedSignatureRejected) {
  Rng rng(46);
  const KeyPair kp = generate_keypair(rng);
  const Bytes msg{1};
  EXPECT_FALSE(verify(kp.pub, msg, Signature{0, 0}));
  EXPECT_FALSE(verify(kp.pub, msg, Signature{kGroupQ, 5}));
  EXPECT_FALSE(verify(PublicKey{0}, msg, sign(kp.priv, msg, rng)));
}

class SchnorrPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchnorrPropertyTest, RandomMessagesRoundTrip) {
  Rng rng(GetParam());
  const KeyPair kp = generate_keypair(rng);
  for (int i = 0; i < 20; ++i) {
    Bytes msg;
    const auto len = rng.next_below(64);
    for (std::uint64_t j = 0; j < len; ++j) {
      msg.push_back(static_cast<std::uint8_t>(rng.next_u64()));
    }
    const Signature sig = sign(kp.priv, msg, rng);
    EXPECT_TRUE(verify(kp.pub, msg, sig));
    if (!msg.empty()) {
      Bytes tampered = msg;
      tampered[0] ^= 0x80;
      EXPECT_FALSE(verify(kp.pub, tampered, sig));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchnorrPropertyTest,
                         ::testing::Values(1, 17, 99, 12345));

// ---------------------------------------------------------------- Wallet

TEST(Wallet, AddressDeterministicFromKey) {
  Rng rng(50);
  const Wallet w(rng);
  EXPECT_TRUE(w.address().valid());
  EXPECT_EQ(w.address(), address_of(w.public_key()));
}

TEST(Wallet, DistinctWalletsDistinctAddresses) {
  Rng rng(51);
  const Wallet a(rng), b(rng);
  EXPECT_NE(a.address(), b.address());
}

TEST(Wallet, SignaturesVerifyAgainstPublicKey) {
  Rng rng(52);
  const Wallet w(rng);
  const Bytes msg{0xde, 0xad};
  const Signature sig = w.sign(msg, rng);
  EXPECT_TRUE(verify(w.public_key(), msg, sig));
}

TEST(Wallet, AddressOfIsSha256OfTheKeyEncoding) {
  // address_of hashes write_key's bytes; the first 8 digest bytes are the
  // address, and a zero prefix (the null address) maps to 1.
  const auto reference = [](PublicKey pub) {
    ByteWriter w;
    write_key(w, pub);
    const std::uint64_t v = digest_prefix64(sha256(w.data()));
    return Address{v == 0 ? 1 : v};
  };
  Rng rng(53);
  for (int i = 0; i < 100000; ++i) {
    const PublicKey pub{rng.next_u64()};
    ASSERT_EQ(address_of(pub), reference(pub)) << pub.y;
  }
  for (const std::uint64_t y : {std::uint64_t{0}, std::uint64_t{1}, kFieldP - 1,
                                ~std::uint64_t{0}}) {
    EXPECT_EQ(address_of(PublicKey{y}), reference(PublicKey{y})) << y;
  }
}

TEST(Wallet, AddressToStringHex) {
  Address a{0xff};
  EXPECT_EQ(a.to_string(), "0xff");
}

// ---------------------------------------------------------------- MerkleMap

namespace {
Digest value_digest(std::uint64_t x) {
  HashWriter w;
  w.u64(x);
  return w.digest();
}

Digest reference_of(const std::map<std::uint64_t, Digest>& model) {
  return merkle_map_reference_root({model.begin(), model.end()});
}
}  // namespace

TEST(MerkleMap, EmptyMapZeroRoot) {
  MerkleMap m;
  EXPECT_EQ(m.root(), Digest{});
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(merkle_map_reference_root({}), Digest{});
}

TEST(MerkleMap, SingleKeyRootIsLeafHash) {
  MerkleMap m;
  m.put(42, value_digest(1));
  EXPECT_EQ(m.root(), MerkleMap::leaf_hash(42, value_digest(1)));
}

TEST(MerkleMap, EraseRestoresPriorRoot) {
  MerkleMap m;
  m.put(1, value_digest(1));
  const Digest one = m.root();
  m.put(2, value_digest(2));
  EXPECT_NE(m.root(), one);
  m.erase(2);
  EXPECT_EQ(m.root(), one);
  m.erase(1);
  EXPECT_EQ(m.root(), Digest{});
  EXPECT_EQ(m.size(), 0u);
}

TEST(MerkleMap, DeepCopyIsIndependent) {
  MerkleMap a;
  for (std::uint64_t k = 0; k < 100; ++k) a.put(k, value_digest(k));
  MerkleMap b = a;
  const Digest before = a.root();
  b.put(7, value_digest(999));
  b.erase(50);
  EXPECT_EQ(a.root(), before);
  EXPECT_NE(b.root(), before);

  // A copy taken while hash caches are dirty — after puts and erases (some
  // of which freed arena slots) and before any root() — carries those dirty
  // caches over. Mutating both sides afterwards must leave each exactly
  // equal to its own model.
  Rng rng(808);
  std::map<std::uint64_t, Digest> model_a;
  for (std::uint64_t k = 0; k < 100; ++k) model_a[k] = value_digest(k);
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t key = rng.chance(0.5) ? rng.next_below(200) : rng.next_u64();
    if (rng.chance(0.4)) {
      a.erase(key);
      model_a.erase(key);
    } else {
      a.put(key, value_digest(key ^ 1));
      model_a[key] = value_digest(key ^ 1);
    }
  }
  MerkleMap c = a;  // a is dirty here
  auto model_c = model_a;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t ka = rng.next_below(300);
    const std::uint64_t kc = rng.next_below(300);
    if (rng.chance(0.5)) {
      a.erase(ka);
      model_a.erase(ka);
      c.put(kc, value_digest(kc + 7));
      model_c[kc] = value_digest(kc + 7);
    } else {
      a.put(ka, value_digest(ka + 3));
      model_a[ka] = value_digest(ka + 3);
      c.erase(kc);
      model_c.erase(kc);
    }
    if (i % 50 == 0) {  // flush one side's caches mid-way, not the other's
      ASSERT_EQ(c.root(), reference_of(model_c)) << "step " << i;
    }
  }
  EXPECT_EQ(a.size(), model_a.size());
  EXPECT_EQ(c.size(), model_c.size());
  EXPECT_EQ(a.root(), reference_of(model_a));
  EXPECT_EQ(c.root(), reference_of(model_c));
  // Copy assignment over a populated map replaces it wholesale.
  b = c;
  EXPECT_EQ(b.root(), c.root());
  EXPECT_EQ(b.size(), c.size());
  b.erase(model_c.begin()->first);
  EXPECT_EQ(c.root(), reference_of(model_c));
}

TEST(MerkleMap, ArenaChurnMatchesReferenceOracle) {
  // Erase-heavy churn: each round erases most keys (emptying whole subtrees
  // and collapsing inner nodes, which frees arena slots) and inserts fresh
  // ones that reuse those slots. Root, size, lookups and proofs must match
  // the structural oracle every round, and so must a copy and a bulk load
  // (one update() into an empty map) of the same set. The map is emptied
  // completely once and rebuilt.
  Rng rng(5150);
  MerkleMap m;
  std::map<std::uint64_t, Digest> model;
  const auto fresh_key = [&rng] {
    return rng.chance(0.5) ? rng.next_below(4096) : rng.next_u64();
  };
  for (int round = 0; round < 40; ++round) {
    if (round == 20) {
      for (const auto& [key, value] : model) m.erase(key);
      model.clear();
      ASSERT_EQ(m.size(), 0u);
      ASSERT_EQ(m.root(), Digest{});
    }
    std::vector<std::uint64_t> keys;
    for (const auto& [key, value] : model) keys.push_back(key);
    rng.shuffle(keys);
    const std::size_t erase = keys.size() * 3 / 4;
    for (std::size_t i = 0; i < erase; ++i) {
      m.erase(keys[i]);
      model.erase(keys[i]);
    }
    for (int i = 0; i < 30; ++i) {  // present or absent
      const std::uint64_t key = fresh_key();
      m.erase(key);
      model.erase(key);
    }
    for (auto& [key, value] : model) {  // refresh a few survivors
      if (rng.chance(0.1)) {
        value = value_digest(rng.next_u64());
        m.put(key, value);
      }
    }
    for (int i = 0; i < 1500; ++i) {
      const std::uint64_t key = fresh_key();
      const Digest v = value_digest(rng.next_u64());
      m.put(key, v);
      model[key] = v;
    }
    // Erases after the inserts, before the next root(): collapses on paths
    // whose caches are still dirty.
    for (int i = 0; i < 200 && !model.empty(); ++i) {
      const auto victim = std::next(
          model.begin(), static_cast<std::ptrdiff_t>(rng.next_below(model.size())));
      m.erase(victim->first);
      model.erase(victim);
    }
    const std::string where = "round " + std::to_string(round);
    ASSERT_EQ(m.size(), model.size()) << where;
    const Digest root = reference_of(model);
    ASSERT_EQ(m.root(), root) << where;
    const MerkleMap copy = m;
    ASSERT_EQ(copy.root(), root) << where;
    const std::vector<MerkleMap::Entry> leaves(model.begin(), model.end());
    MerkleMap loaded;
    loaded.update(leaves);
    ASSERT_EQ(loaded.root(), root) << where;
    for (int i = 0; i < 40; ++i) {
      const auto it = std::next(
          model.begin(), static_cast<std::ptrdiff_t>(rng.next_below(model.size())));
      ASSERT_TRUE(m.contains(it->first));
      ASSERT_TRUE(MerkleMap::verify(root, it->first, it->second, m.prove(it->first)))
          << where;
      ASSERT_EQ(copy.prove(it->first), m.prove(it->first)) << where;
      const std::uint64_t absent = fresh_key();
      if (model.contains(absent)) continue;
      ASSERT_FALSE(m.contains(absent));
      ASSERT_TRUE(MerkleMap::verify(root, absent, std::nullopt, m.prove(absent)))
          << where;
    }
  }
}

TEST(MerkleMap, UpdateIntoEmptyMapMatchesIncrementalBuild) {
  // A bulk load (one update() of sorted leaves into an empty map, leaf
  // hashes batched) must be bit-identical to put()-loop construction and to
  // the structural oracle, across sizes that hit every shape: single leaf,
  // one full nibble fanout, clustered low keys (deep shared prefixes), and
  // large random spreads.
  Rng rng(4242);
  for (const std::size_t n : {1u, 2u, 15u, 16u, 17u, 100u, 1000u, 5000u}) {
    std::map<std::uint64_t, Digest> model;
    while (model.size() < n) {
      const std::uint64_t key =
          rng.chance(0.3) ? rng.next_below(256) : rng.next_u64();
      model[key] = value_digest(rng.next_u64());
    }
    const std::vector<MerkleMap::Entry> leaves(model.begin(), model.end());
    MerkleMap bulk;
    bulk.update(leaves);
    MerkleMap incremental;
    for (const auto& [k, v] : model) incremental.put(k, v);
    ASSERT_EQ(bulk.size(), n);
    ASSERT_EQ(bulk.root(), incremental.root()) << "n=" << n;
    ASSERT_EQ(bulk.root(), reference_of(model)) << "n=" << n;
    // Lookups traverse the bulk-built structure, not just its hashes.
    for (const auto& [k, v] : model) ASSERT_TRUE(bulk.contains(k));
  }
}

TEST(MerkleMap, MatchesReferenceOracleUnderRandomChurn) {
  // Incremental root (cached tree, dirty-path rehash) vs. the structural
  // recursion oracle, across interleaved inserts, updates, and erases.
  // Keys mix dense low values (deep shared prefixes, node splits) with
  // random 64-bit values (shallow spread).
  Rng rng(77);
  MerkleMap m;
  std::map<std::uint64_t, Digest> model;
  for (int round = 0; round < 40; ++round) {
    for (int op = 0; op < 50; ++op) {
      const std::uint64_t key =
          rng.chance(0.5) ? rng.next_below(64) : rng.next_u64();
      if (rng.chance(0.3) && !model.empty()) {
        // Erase: an existing key half the time, a probably-absent one else.
        const std::uint64_t victim =
            rng.chance(0.5) ? std::next(model.begin(),
                                        static_cast<std::ptrdiff_t>(
                                            rng.next_below(model.size())))
                                  ->first
                            : key;
        m.erase(victim);
        model.erase(victim);
      } else {
        const Digest v = value_digest(rng.next_u64());
        m.put(key, v);
        model[key] = v;
      }
    }
    ASSERT_EQ(m.size(), model.size());
    ASSERT_EQ(m.root(), reference_of(model)) << "round " << round;
  }
}

TEST(MerkleMap, ParallelFlushMatchesSerialRoot) {
  // flush() re-hashes the dirty depth-2 subtrees as parallel queue tasks.
  // Under put/update/erase churn (erases collapse inner nodes, clustered
  // keys build deep subtrees), the root it leaves must equal a twin map's
  // serial root() and the oracle at every worker count, and proofs from the
  // flushed map must verify against it.
  for (const std::size_t workers : {0u, 1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    JobQueue queue(JobQueueConfig{.threads = workers});
    Rng rng(0xf1a5);
    MerkleMap flushed;
    MerkleMap serial;
    std::map<std::uint64_t, Digest> model;
    const auto fresh_key = [&rng] {
      return rng.chance(0.3) ? rng.next_below(1u << 20) << 40 : rng.next_u64();
    };
    flushed.flush(queue);  // empty map: nothing to do
    for (int round = 0; round < 12; ++round) {
      std::vector<std::uint64_t> keys;
      for (const auto& [key, value] : model) keys.push_back(key);
      rng.shuffle(keys);
      for (std::size_t i = 0; i < keys.size() * 3 / 10; ++i) {
        flushed.erase(keys[i]);
        serial.erase(keys[i]);
        model.erase(keys[i]);
      }
      for (int i = 0; i < (round == 0 ? 3000 : 600); ++i) {
        const std::uint64_t key =
            rng.chance(0.2) && !model.empty()
                ? std::next(model.begin(), static_cast<std::ptrdiff_t>(
                                               rng.next_below(model.size())))
                      ->first
                : fresh_key();
        const Digest v = value_digest(rng.next_u64());
        flushed.put(key, v);
        serial.put(key, v);
        model[key] = v;
      }
      const std::string where = "round " + std::to_string(round);
      flushed.flush(queue);
      flushed.flush(queue);  // clean now: a no-op
      const Digest root = reference_of(model);
      ASSERT_EQ(serial.root(), root) << where;
      ASSERT_EQ(flushed.root(), root) << where;
      for (int i = 0; i < 20; ++i) {
        const auto it = std::next(
            model.begin(), static_cast<std::ptrdiff_t>(rng.next_below(model.size())));
        ASSERT_TRUE(MerkleMap::verify(root, it->first, it->second,
                                      flushed.prove(it->first)))
            << where;
        const std::uint64_t absent = fresh_key();
        if (model.contains(absent)) continue;
        ASSERT_TRUE(MerkleMap::verify(root, absent, std::nullopt,
                                      flushed.prove(absent)))
            << where;
      }
    }
    EXPECT_GT(queue.stats().of(JobClass::kValidation).completed, 0u);
  }
}

TEST(MerkleMap, BatchedUpdateMatchesSequentialPuts) {
  // update() hashes every put's leaf in one batch, then applies the entries
  // in order. It must build exactly what the same put()/erase() calls build:
  // from an empty map, and on a populated map mixing updates to existing
  // keys, fresh inserts (dense low keys force splits) and erases (present
  // and absent).
  Rng rng(606);
  MerkleMap batched;
  MerkleMap sequential;
  std::map<std::uint64_t, Digest> model;
  for (int round = 0; round < 30; ++round) {
    std::vector<std::pair<std::uint64_t, std::optional<Digest>>> entries;
    const std::uint64_t n = round == 0 ? 200 : rng.next_below(80);
    for (std::uint64_t i = 0; i < n; ++i) {
      const bool existing = !model.empty() && rng.chance(0.5);
      const std::uint64_t key =
          existing ? std::next(model.begin(), static_cast<std::ptrdiff_t>(
                                                  rng.next_below(model.size())))
                         ->first
                   : (rng.chance(0.5) ? rng.next_below(512) : rng.next_u64());
      if (round > 0 && rng.chance(0.25)) {
        entries.emplace_back(key, std::nullopt);
      } else {
        entries.emplace_back(key, value_digest(rng.next_u64()));
      }
    }
    batched.update(entries);
    for (const auto& [key, value] : entries) {
      if (value.has_value()) {
        sequential.put(key, *value);
        model[key] = *value;
      } else {
        sequential.erase(key);
        model.erase(key);
      }
    }
    ASSERT_EQ(batched.size(), model.size()) << "round " << round;
    ASSERT_EQ(batched.root(), sequential.root()) << "round " << round;
    ASSERT_EQ(batched.root(), reference_of(model)) << "round " << round;
  }
  // An empty batch is a no-op; a batch erasing everything empties the map.
  const Digest before = batched.root();
  batched.update({});
  EXPECT_EQ(batched.root(), before);
  std::vector<std::pair<std::uint64_t, std::optional<Digest>>> wipe;
  for (const auto& [key, value] : model) wipe.emplace_back(key, std::nullopt);
  batched.update(wipe);
  EXPECT_EQ(batched.size(), 0u);
  EXPECT_EQ(batched.root(), Digest{});
}

TEST(MerkleMap, RootWithMatchesMaterializedApplication) {
  Rng rng(91);
  MerkleMap base;
  std::map<std::uint64_t, Digest> model;
  for (std::uint64_t k = 0; k < 500; ++k) {
    const std::uint64_t key = rng.chance(0.5) ? k : rng.next_u64();
    const Digest v = value_digest(key);
    base.put(key, v);
    model[key] = v;
  }
  for (int round = 0; round < 20; ++round) {
    std::map<std::uint64_t, std::optional<Digest>> delta;
    auto expected = model;
    for (int op = 0; op < 30; ++op) {
      const std::uint64_t key =
          rng.chance(0.5)
              ? std::next(model.begin(), static_cast<std::ptrdiff_t>(
                                             rng.next_below(model.size())))
                    ->first
              : rng.next_u64();
      if (rng.chance(0.4)) {
        delta[key] = std::nullopt;  // tombstone (possibly of an absent key)
        expected.erase(key);
      } else {
        const Digest v = value_digest(rng.next_u64());
        delta[key] = v;
        expected[key] = v;
      }
    }
    const Digest before = base.root();
    const std::vector<MerkleMap::Entry> entries(delta.begin(), delta.end());
    const MerkleMap::Committed with = base.stage(entries).committed;
    ASSERT_EQ(with.root, reference_of(expected)) << "round " << round;
    ASSERT_EQ(with.count, expected.size()) << "round " << round;
    ASSERT_EQ(base.root(), before);  // stage must not mutate the map
    ASSERT_EQ(base.size(), model.size());
  }
}

TEST(MerkleMap, StageThenAdoptMatchesUpdate) {
  // adopt(stage(delta)) must leave the map update(delta) would: the
  // reference root, the key count, proofs of every key that verify, and,
  // because each node the delta dirtied takes its staged digest, no dirty
  // node at all. Deltas mix puts that split a leaf (a key one bit from a
  // present one), erases that collapse a node, erases of absent keys and
  // value changes, on dense and on random keys, from an empty map and a
  // one-key map up.
  Rng rng(4141);
  const auto adopt_and_check = [](MerkleMap& map, const MerkleMap::Staged& staged,
                                  const std::map<std::uint64_t, Digest>& model,
                                  bool expect_clean, const std::string& where) {
    ASSERT_EQ(staged.committed.root, reference_of(model)) << where;
    ASSERT_EQ(staged.committed.count, model.size()) << where;
    map.adopt(staged);
    if (expect_clean) {
      ASSERT_EQ(map.dirty_nodes(), 0u) << where;
    }
    ASSERT_EQ(map.size(), model.size()) << where;
    const Digest root = map.root();
    ASSERT_EQ(root, reference_of(model)) << where;
    for (const auto& [key, value] : model) {
      ASSERT_TRUE(MerkleMap::verify(root, key, value, map.prove(key)))
          << where << ": key " << key;
    }
  };
  // A random delta over `model`: ~1/4 value changes, ~1/4 erases (a few of
  // absent keys), ~1/4 leaf-splitting puts next to present keys, the rest
  // fresh keys from `fresh`.
  const auto random_delta = [&](std::map<std::uint64_t, Digest>& model, std::size_t ops,
                                const auto& fresh) {
    std::map<std::uint64_t, std::optional<Digest>> delta;
    for (std::size_t op = 0; op < ops; ++op) {
      const auto pick = [&] {
        return std::next(model.begin(),
                         static_cast<std::ptrdiff_t>(rng.next_below(model.size())))
            ->first;
      };
      const std::uint64_t roll = rng.next_below(4);
      std::uint64_t key = 0;
      if (model.empty() || roll == 3) {
        key = fresh();
      } else if (roll == 2) {
        key = pick() ^ (std::uint64_t{1} << rng.next_below(8));
      } else {
        key = rng.chance(0.1) ? fresh() : pick();
      }
      if (roll == 1) {
        delta[key] = std::nullopt;
      } else {
        delta[key] = value_digest(rng.next_u64());
      }
    }
    for (const auto& [key, value] : delta) {
      if (value.has_value()) {
        model[key] = *value;
      } else {
        model.erase(key);
      }
    }
    return std::vector<MerkleMap::Entry>(delta.begin(), delta.end());
  };

  std::uint64_t next_dense = 0;
  const auto dense = [&] { return 0x100000 + next_dense++; };
  const auto sparse = [&] { return rng.next_u64(); };
  for (const bool use_dense : {true, false}) {
    for (const std::size_t start : {std::size_t{0}, std::size_t{1}, std::size_t{600}}) {
      MerkleMap map;
      std::map<std::uint64_t, Digest> model;
      std::vector<MerkleMap::Entry> seed;
      for (std::size_t i = 0; i < start; ++i) {
        const std::uint64_t key = use_dense ? dense() : sparse();
        model[key] = value_digest(key);
      }
      for (const auto& [key, value] : model) seed.emplace_back(key, value);
      map.update(seed);
      for (int round = 0; round < 12; ++round) {
        const std::string where = std::string(use_dense ? "dense" : "random") +
                                  " start " + std::to_string(start) + " round " +
                                  std::to_string(round);
        const std::size_t ops = round == 0 ? 1 : 1 + rng.next_below(80);
        const std::vector<MerkleMap::Entry> delta =
            use_dense ? random_delta(model, ops, dense) : random_delta(model, ops, sparse);
        const MerkleMap::Staged staged = map.stage(delta);
        adopt_and_check(map, staged, model, true, where);
        if (HasFatalFailure()) return;
      }
      // Erase every key in one staged delta: the map ends empty.
      std::vector<MerkleMap::Entry> wipe;
      for (const auto& [key, value] : model) wipe.emplace_back(key, std::nullopt);
      model.clear();
      adopt_and_check(map, map.stage(wipe), model, true, "wipe");
      EXPECT_EQ(map.root(), Digest{});
    }
  }

  // A stage taken before a later mutation: adopt sees another base, stamps
  // nothing, and root() still hashes the right tree.
  MerkleMap map;
  std::map<std::uint64_t, Digest> model;
  std::vector<MerkleMap::Entry> seed;
  for (std::uint64_t i = 0; i < 300; ++i) model[0x100000 + i] = value_digest(i);
  for (const auto& [key, value] : model) seed.emplace_back(key, value);
  map.update(seed);
  const std::vector<MerkleMap::Entry> delta =
      random_delta(model, 40, [&] { return rng.next_u64(); });
  const MerkleMap::Staged staged = map.stage(delta);
  const std::uint64_t late = 0x100000 + 1000;
  map.put(late, value_digest(late));
  model[late] = value_digest(late);
  map.adopt(staged);
  EXPECT_GT(map.dirty_nodes(), 0u);
  MerkleMap::Staged restaged = map.stage({});  // the right root, now hashed
  EXPECT_EQ(restaged.committed.root, reference_of(model));
  EXPECT_EQ(map.dirty_nodes(), 0u);
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(MerkleMap::verify(map.root(), key, value, map.prove(key)));
  }
}

// --------------------------------------------------------- MerkleMapProof

namespace {
/// Verify after an encode/decode round-trip, the way a remote verifier sees
/// the proof.
bool wire_verify(const Digest& root, std::uint64_t key,
                 const std::optional<Digest>& value, const MerkleMapProof& p) {
  const auto decoded = MerkleMapProof::decode(p.encode());
  if (!decoded.ok()) return false;
  if (!(decoded.value() == p)) return false;
  return MerkleMap::verify(root, key, value, decoded.value());
}
}  // namespace

TEST(MerkleMapProof, EmptyMapProvesNonMembership) {
  MerkleMap m;
  const MerkleMapProof p = m.prove(123);
  EXPECT_TRUE(p.steps.empty());
  EXPECT_FALSE(p.has_terminal_leaf);
  EXPECT_TRUE(wire_verify(m.root(), 123, std::nullopt, p));
  // The same proof cannot claim membership, nor verify a nonzero root.
  EXPECT_FALSE(MerkleMap::verify(m.root(), 123, value_digest(1), p));
  EXPECT_FALSE(MerkleMap::verify(value_digest(9), 123, std::nullopt, p));
}

TEST(MerkleMapProof, SingleKeyMembershipAndCollision) {
  MerkleMap m;
  m.put(42, value_digest(7));
  const MerkleMapProof member = m.prove(42);
  EXPECT_TRUE(member.steps.empty());
  EXPECT_TRUE(wire_verify(m.root(), 42, value_digest(7), member));
  EXPECT_FALSE(MerkleMap::verify(m.root(), 42, value_digest(8), member));
  // Any other key's non-membership proof is the colliding leaf itself.
  const MerkleMapProof absent = m.prove(43);
  EXPECT_TRUE(absent.has_terminal_leaf);
  EXPECT_EQ(absent.terminal_key, 42u);
  EXPECT_TRUE(wire_verify(m.root(), 43, std::nullopt, absent));
  EXPECT_FALSE(MerkleMap::verify(m.root(), 42, std::nullopt, absent));
}

TEST(MerkleMapProof, MembershipRoundTripClusteredKeys) {
  // Clustered prefixes force deep paths (shared high nibbles); the sprinkle
  // of random keys keeps the root fan-out realistic.
  Rng rng(1234);
  MerkleMap m;
  std::map<std::uint64_t, Digest> model;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t key = 0xABCDEF0000000000ull | i;
    m.put(key, value_digest(i));
    model[key] = value_digest(i);
  }
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t key = rng.next_u64();
    m.put(key, value_digest(key));
    model[key] = value_digest(key);
  }
  const Digest root = m.root();
  for (const auto& [key, value] : model) {
    const MerkleMapProof p = m.prove(key);
    EXPECT_FALSE(p.has_terminal_leaf);
    ASSERT_TRUE(wire_verify(root, key, value, p)) << "key " << key;
    // The right proof for the wrong claim must not verify.
    EXPECT_FALSE(MerkleMap::verify(root, key, value_digest(~key), p));
    EXPECT_FALSE(MerkleMap::verify(root, key, std::nullopt, p));
    EXPECT_FALSE(MerkleMap::verify(root, key + 1, value, p));
    EXPECT_FALSE(MerkleMap::verify(value_digest(0), key, value, p));
  }
}

TEST(MerkleMapProof, NonMembershipAfterErase) {
  // Erase leaves physical count-1 inner chains behind; proofs must still
  // collapse them to the canonical shape.
  MerkleMap m;
  for (std::uint64_t i = 0; i < 32; ++i) m.put(0xF00D00ull << 8 | i, value_digest(i));
  for (std::uint64_t i = 1; i < 32; i += 2) m.erase(0xF00D00ull << 8 | i);
  const Digest root = m.root();
  for (std::uint64_t i = 0; i < 32; ++i) {
    const std::uint64_t key = 0xF00D00ull << 8 | i;
    const MerkleMapProof p = m.prove(key);
    if (i % 2 == 0) {
      ASSERT_TRUE(wire_verify(root, key, value_digest(i), p)) << i;
    } else {
      ASSERT_TRUE(wire_verify(root, key, std::nullopt, p)) << i;
      EXPECT_FALSE(MerkleMap::verify(root, key, value_digest(i), p));
    }
  }
}

TEST(MerkleMapProof, DecodeIsStrict) {
  MerkleMap m;
  for (std::uint64_t i = 0; i < 20; ++i) m.put(i * 1000003, value_digest(i));
  const Bytes wire = m.prove(5 * 1000003).encode();
  ASSERT_TRUE(MerkleMapProof::decode(wire).ok());
  {
    Bytes bad = wire;
    bad[0] = 0x02;  // unknown version
    EXPECT_EQ(MerkleMapProof::decode(bad).error().code, "proof.bad_version");
  }
  {
    Bytes bad = wire;
    bad[1] |= 0x80;  // reserved flag bit
    EXPECT_EQ(MerkleMapProof::decode(bad).error().code, "proof.bad_flags");
  }
  {
    Bytes bad = wire;
    bad[2] = 17;  // deeper than the key has nibbles
    EXPECT_EQ(MerkleMapProof::decode(bad).error().code, "proof.bad_depth");
  }
  {
    Bytes bad = wire;
    bad.push_back(0x00);  // trailing garbage
    EXPECT_EQ(MerkleMapProof::decode(bad).error().code, "proof.trailing_bytes");
  }
  {
    Bytes bad = wire;
    bad.pop_back();  // truncated
    EXPECT_FALSE(MerkleMapProof::decode(bad).ok());
  }
  EXPECT_FALSE(MerkleMapProof::decode({}).ok());
}

TEST(MerkleMapProof, ProofFuzz10kKeys) {
  // check.sh gate: every present key proves, every absent key
  // non-membership-proves, and no single-byte mutation of an encoded proof
  // survives decode + verify. 10k keys exercise every proof shape.
  Rng rng(0xF00DF00D);
  MerkleMap m;
  std::vector<std::uint64_t> keys;
  keys.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    // Half clustered (deep paths, absent-slot and colliding-leaf proofs),
    // half uniform (shallow spread).
    const std::uint64_t key = rng.chance(0.5)
                                  ? (0xDEAD000000000000ull | rng.next_below(1 << 20))
                                  : rng.next_u64();
    if (m.contains(key)) continue;
    m.put(key, value_digest(key));
    keys.push_back(key);
  }
  const Digest root = m.root();
  for (const std::uint64_t key : keys) {
    ASSERT_TRUE(MerkleMap::verify(root, key, value_digest(key), m.prove(key)))
        << "membership failed for key " << key;
  }
  std::size_t absent_checked = 0;
  while (absent_checked < 10000) {
    const std::uint64_t key = rng.chance(0.5)
                                  ? (0xDEAD000000000000ull | rng.next_below(1 << 20))
                                  : rng.next_u64();
    if (m.contains(key)) continue;
    const MerkleMapProof p = m.prove(key);
    ASSERT_TRUE(MerkleMap::verify(root, key, std::nullopt, p))
        << "non-membership failed for key " << key;
    ASSERT_FALSE(MerkleMap::verify(root, key, value_digest(key), p));
    ++absent_checked;
  }
  // Mutation sweep over a sample of proofs: flip every byte position in
  // turn; the mutant must fail decode or fail verify — no byte is inert.
  for (int sample = 0; sample < 24; ++sample) {
    const std::uint64_t key = keys[rng.next_below(keys.size())];
    const bool member = sample % 2 == 0;
    const std::uint64_t probe = member ? key : key + 1;
    const std::optional<Digest> claim =
        member ? std::optional<Digest>(value_digest(key)) : std::nullopt;
    if (!member && m.contains(probe)) continue;
    const Bytes wire = m.prove(probe).encode();
    for (std::size_t pos = 0; pos < wire.size(); ++pos) {
      Bytes mutated = wire;
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      const auto decoded = MerkleMapProof::decode(mutated);
      if (!decoded.ok()) continue;  // rejected at the wire: good
      ASSERT_FALSE(MerkleMap::verify(root, probe, claim, decoded.value()))
          << "mutation at byte " << pos << " of " << wire.size()
          << " survived verification (key " << probe << ")";
    }
  }
}

// ---------------------------------------------------------------- SetHash

TEST(SetHash, OrderIndependentAndRemovable) {
  SetHash a;
  a.add(value_digest(1));
  a.add(value_digest(2));
  a.add(value_digest(3));
  SetHash b;
  b.add(value_digest(3));
  b.add(value_digest(1));
  b.add(value_digest(2));
  EXPECT_EQ(a, b);
  a.remove(value_digest(2));
  SetHash c;
  c.add(value_digest(1));
  c.add(value_digest(3));
  EXPECT_EQ(a.bytes(), c.bytes());
  a.remove(value_digest(1));
  a.remove(value_digest(3));
  EXPECT_EQ(a, SetHash{});  // empty multiset is all-zero
}

}  // namespace
}  // namespace mv::crypto
