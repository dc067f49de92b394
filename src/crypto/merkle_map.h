// Incremental Merkle map: an ordered map from 64-bit keys to 32-byte value
// digests that maintains a Merkle commitment to its full contents.
//
// The commitment is defined purely on the key set (shape-independent, like
// rippled's SHAMap): a subtree spanning a nibble prefix hashes to
//   - the all-zero digest when it holds no keys,
//   - leaf_hash(key, value) when it holds exactly one key (at any depth),
//   - sha256(0x01 || present-children bitmap || child digests) otherwise,
// with children partitioned by the next most-significant nibble of the key.
//
// The in-memory tree caches every subtree digest and re-hashes only dirtied
// paths, so after m point updates the next root() costs O(m · log n) hashing
// instead of O(n). Its nodes live in two flat arenas (leaves, inner nodes)
// linked by 32-bit indices, not one heap allocation per node. stage()
// computes the root of "this map plus a delta" without mutating the map at
// all — the ledger state overlay uses it to commit to a block's post-state
// in O(touched · log n) — and keeps every digest it hashed on the way: each
// put's leaf hash and each inner node's digest, keyed by (key prefix,
// depth). adopt() later applies that delta with those digests, so a block
// that was staged before it commits (a sealed proposal) is hashed once.
//
// prove(key) produces a compact inclusion proof — the present-children
// bitmap and sibling digests of every inner node on the key's nibble path —
// or a non-membership proof for an absent key (the path terminated by either
// an empty child slot or the single colliding leaf). The static verify()
// replays the path against a bare 32-byte root with no tree in hand; the
// byte layout is specified in DESIGN.md §"Account proofs & light client".
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "crypto/sha256.h"

namespace mv {
class JobQueue;
}  // namespace mv

namespace mv::crypto {

/// One inner node on a key's lookup path, root-first at consecutive depths.
/// Its `sibling_count` sibling digests are the present children in index
/// order, excluding the child the path descends into (when that child is
/// present); they sit in MerkleMapProof::siblings after the digests of the
/// steps above it.
struct MerkleMapProofStep {
  std::uint16_t bitmap = 0;        ///< present-children bitmap
  std::uint8_t sibling_count = 0;  ///< this step's digests in `siblings`

  [[nodiscard]] bool operator==(const MerkleMapProofStep&) const = default;
};

/// Inclusion / non-membership proof against a MerkleMap root.
///
/// Shapes (all verified by MerkleMap::verify against the claimed value):
///  - membership: `steps` only — the deepest step's missing child slot is the
///    key's leaf (an empty `steps` means the whole map is that one leaf);
///  - non-membership, absent slot: the deepest step's bitmap has no bit at
///    the key's nibble and its siblings are every present child;
///  - non-membership, colliding leaf: the path ends at the single leaf of a
///    different key (`terminal_key`/`terminal_value` reproduce its leaf
///    hash; the key prefix must match the lookup path);
///  - non-membership, empty map: no steps, no terminal — root is all-zero.
struct MerkleMapProof {
  std::vector<MerkleMapProofStep> steps;  ///< root-first, depths 0..n-1
  /// Every step's sibling digests, step by step in `steps` order.
  std::vector<Digest> siblings;
  bool has_terminal_leaf = false;
  std::uint64_t terminal_key = 0;  ///< key of the colliding leaf
  Digest terminal_value{};         ///< its value digest (leaf-hash preimage)

  [[nodiscard]] bool operator==(const MerkleMapProof&) const = default;

  /// Canonical wire format (DESIGN.md). decode() is strict: it rejects
  /// unknown versions/flags, out-of-range counts, sibling counts that the
  /// bitmap cannot support, and trailing bytes — so that no byte of an
  /// encoded proof is semantically inert.
  [[nodiscard]] Bytes encode() const;
  /// Append encode()'s bytes to `w`.
  void write(ByteWriter& w) const;
  /// encode()'s length, so a writer can be sized once.
  [[nodiscard]] std::size_t encoded_size() const;
  [[nodiscard]] static Result<MerkleMapProof> decode(std::span<const std::uint8_t> bytes);
};

class MerkleMap {
 public:
  /// One point update: key -> new value digest, or nullopt to erase the key.
  using Entry = std::pair<std::uint64_t, std::optional<Digest>>;

  /// Root and key count of the map with a delta applied (stage).
  struct Committed {
    Digest root{};
    std::size_t count = 0;
  };

  /// A delta together with every digest its post-state root needed: what
  /// stage() computes and adopt() applies.
  struct Staged {
    /// One point update with its leaf hash (unused for an erase).
    struct Update {
      std::uint64_t key = 0;
      std::optional<Digest> value;  ///< nullopt = erase
      Digest leaf{};                ///< leaf_hash(key, *value)
    };
    /// Digest of the inner node spanning the keys whose top `depth` nibbles
    /// are `prefix`'s (the rest of `prefix` is zero).
    struct Node {
      std::uint64_t prefix = 0;
      Digest hash{};
      std::uint8_t depth = 0;
    };
    Committed committed;  ///< root and key count with the delta applied
    Digest base_root{};   ///< root() of the map it was staged on
    std::vector<Update> updates;  ///< the delta, in its (ascending) order
    /// Every inner node of the post-delta tree that the stage hashed, in
    /// pre-order: ascending by (prefix, depth).
    std::vector<Node> nodes;
  };

  /// Insert or update. O(log n) index work; hashing is deferred to root().
  void put(std::uint64_t key, const Digest& value);

  /// Batched point updates: put (engaged value) or erase (nullopt) each
  /// key, in order — the same result as the equivalent put()/erase() calls,
  /// but the leaf hashes of all puts run in one sha256_short_batch pass.
  /// This is the one way the ledger state grows its accounts tree: a block
  /// commit refreshes its touched account leaves through it, and a credited
  /// genesis or an installed snapshot loads every leaf through it into an
  /// empty map (which reserves the leaf arena for the puts first).
  void update(std::span<const Entry> entries);
  /// Remove a key (no-op when absent).
  void erase(std::uint64_t key);
  [[nodiscard]] bool contains(std::uint64_t key) const;
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Commitment to the current contents; the empty map commits to all-zero.
  /// Lazily re-hashes dirty paths: O(dirty · log n), O(1) when clean.
  [[nodiscard]] Digest root() const;

  /// Re-hash the dirty paths below depth 2 as one kValidation batch on
  /// `queue`, one task per dirty depth-2 subtree (tasks touch disjoint
  /// nodes); root() then folds only the top two levels. Every cached digest
  /// ends up exactly as root() alone would compute it. Like root(), it must
  /// not overlap any other use of the map.
  void flush(JobQueue& queue) const;

  /// Root and key count of this map with `delta` (strictly ascending keys)
  /// applied on top — erases of absent keys ignored — without mutating the
  /// map. O(|delta| · log n) hashing against the cached tree, in one walk
  /// that also yields the count, keeps each put's leaf hash and records
  /// each inner digest it computes. Ascending order is the caller's
  /// contract; it is assert-checked in debug builds.
  [[nodiscard]] Staged stage(std::span<const Entry> delta) const;

  /// Apply a staged delta: the same result as update() of its entries, but
  /// the puts take the staged leaf hashes. When root() still equals the
  /// staged base root, every node the delta dirtied also takes its staged
  /// digest, so the next root() hashes nothing; on any other base those
  /// nodes stay dirty and root() hashes them as after update(). A node is
  /// stamped only when its staged digest exists and its whole subtree is
  /// clean, so a partial stage can cost hashing but never a wrong root.
  void adopt(const Staged& staged);

  /// Inner nodes whose cached digest is stale, i.e. that the next root()
  /// re-hashes (diagnostics; O(n)).
  [[nodiscard]] std::size_t dirty_nodes() const;

  /// Inclusion proof for a present key, non-membership proof otherwise.
  /// O(log n); flushes dirty hash caches like root().
  [[nodiscard]] MerkleMapProof prove(std::uint64_t key) const;

  /// Verify `proof` against a bare root, with no tree in hand.
  /// `value` engaged: proves `key -> value` is in the committed map.
  /// `value` nullopt: proves `key` is absent from the committed map.
  [[nodiscard]] static bool verify(const Digest& root, std::uint64_t key,
                                   const std::optional<Digest>& value,
                                   const MerkleMapProof& proof);

  /// Leaf commitment; exposed so oracles can reproduce the format.
  [[nodiscard]] static Digest leaf_hash(std::uint64_t key, const Digest& value);

 private:
  // The tree lives in two index arenas. A node reference (Ref) is a 32-bit
  // index into inners_, or into leaves_ when kLeafBit is set; kNone marks an
  // empty child slot. Erased slots go on a free list and are reused. The
  // shape is canonical: every inner node spans >= 2 keys (erase collapses a
  // node left with one key into that key's leaf).
  using Ref = std::uint32_t;
  static constexpr Ref kNone = 0xFFFFFFFFu;
  static constexpr Ref kLeafBit = 0x80000000u;

  struct Leaf {
    std::uint64_t key = 0;
    Digest value{};  ///< leaf-hash preimage, kept for non-membership proofs
    Digest hash{};   ///< leaf_hash(key, value), always fresh
  };
  static constexpr std::array<Ref, 16> kNoKids = [] {
    std::array<Ref, 16> kids{};
    kids.fill(kNone);
    return kids;
  }();
  struct Inner {
    std::array<Ref, 16> kids = kNoKids;  ///< by the next nibble of the key
    std::uint32_t count = 0;   ///< keys in this subtree (>= 2)
    /// Cached subtree digest, valid when !dirty. Mutable so a const tree
    /// can flush its cache.
    mutable bool dirty = true;
    mutable Digest hash{};
  };

  static bool is_leaf(Ref r) { return (r & kLeafBit) != 0; }
  static Ref leaf_ref(std::uint32_t index) { return index | kLeafBit; }
  const Leaf& leaf(Ref r) const { return leaves_[r & ~kLeafBit]; }
  Leaf& leaf(Ref r) { return leaves_[r & ~kLeafBit]; }
  /// Cached digest of a non-empty subtree (fresh only after ensure()).
  const Digest& hash_of(Ref r) const {
    return is_leaf(r) ? leaf(r).hash : inners_[r].hash;
  }
  std::size_t count_of(Ref r) const {
    return r == kNone ? 0 : is_leaf(r) ? 1 : inners_[r].count;
  }

  Ref new_leaf(std::uint64_t key, const Digest& value, const Digest& hash);
  Ref new_inner(std::uint32_t count);
  /// Re-hash the dirty inner nodes below (and including) `r`.
  void ensure(Ref r) const;
  /// put() with the leaf hash `lh` of (key, value) already computed.
  void put_hashed(std::uint64_t key, const Digest& value, const Digest& lh);
  /// Inner chain from `depth` down to where the keys of the leaves `a` and
  /// `b` diverge; returns its top.
  Ref split(Ref a, Ref b, int depth);
  /// stage()'s walk: the root and count of the subtree `node` at `depth`
  /// with `updates` (all under its prefix) applied; appends the inner
  /// digests it computes to `nodes` in pre-order.
  [[nodiscard]] Committed merge(Ref node, int depth,
                                std::span<const Staged::Update> updates,
                                std::vector<Staged::Node>& nodes) const;
  /// adopt()'s stamp: give each dirty inner node under `r` (at `depth`, key
  /// prefix `prefix`) its digest from `nodes`, advancing `next` through
  /// them in pre-order. Returns whether `r`'s subtree is clean.
  bool stamp(Ref r, int depth, std::uint64_t prefix,
             std::span<const Staged::Node> nodes, std::size_t& next);

  std::vector<Leaf> leaves_;
  std::vector<Inner> inners_;
  std::vector<std::uint32_t> free_leaves_;
  std::vector<std::uint32_t> free_inners_;
  Ref root_ = kNone;
  std::size_t size_ = 0;
};

/// Reference oracle: the canonical root of a key->value-digest set, computed
/// by direct structural recursion with no caching or tree reuse. Input pairs
/// need not be sorted; keys must be unique. Differential tests compare this
/// against MerkleMap's incrementally maintained root.
[[nodiscard]] Digest merkle_map_reference_root(
    std::vector<std::pair<std::uint64_t, Digest>> leaves);

}  // namespace mv::crypto
