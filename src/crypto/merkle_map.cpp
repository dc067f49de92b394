#include "crypto/merkle_map.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <span>
#include <tuple>

namespace mv::crypto {

namespace {

/// Most-significant-nibble-first path through the key, depth 0..15.
unsigned nibble(std::uint64_t key, int depth) {
  return static_cast<unsigned>((key >> (60 - 4 * depth)) & 0xF);
}

}  // namespace

struct MerkleMap::Node {
  bool leaf = true;
  std::uint64_t key = 0;  ///< leaf only
  Digest value{};         ///< leaf only: value digest (leaf-hash preimage,
                          ///< kept so proofs can expose colliding leaves)
  /// Leaf: exact leaf_hash (always fresh). Inner: cached subtree digest,
  /// valid when !dirty. Mutable so a const tree can flush its cache.
  mutable Digest hash{};
  mutable bool dirty = false;  ///< inner only
  std::uint32_t count = 1;     ///< keys in this subtree
  /// Children, allocated for inner nodes only (keeps leaves small).
  std::unique_ptr<std::array<std::unique_ptr<Node>, 16>> kids;
};

namespace {

using Node = MerkleMap::Node;
using NodePtr = std::unique_ptr<Node>;

NodePtr make_leaf(std::uint64_t key, const Digest& value, const Digest& leaf_hash) {
  auto n = std::make_unique<Node>();
  n->key = key;
  n->value = value;
  n->hash = leaf_hash;
  return n;
}

NodePtr make_inner() {
  auto n = std::make_unique<Node>();
  n->leaf = false;
  n->dirty = true;
  n->count = 0;
  n->kids = std::make_unique<std::array<NodePtr, 16>>();
  return n;
}

NodePtr clone(const Node* n) {
  if (n == nullptr) return nullptr;
  auto c = std::make_unique<Node>();
  c->leaf = n->leaf;
  c->key = n->key;
  c->value = n->value;
  c->hash = n->hash;
  c->dirty = n->dirty;
  c->count = n->count;
  if (n->kids) {
    c->kids = std::make_unique<std::array<NodePtr, 16>>();
    for (int i = 0; i < 16; ++i) (*c->kids)[i] = clone((*n->kids)[i].get());
  }
  return c;
}

/// Combine child digests into an inner commitment. `present` marks non-empty
/// children; their digests appear in index order after a 16-bit bitmap.
Digest inner_hash(const std::array<const Digest*, 16>& children) {
  HashWriter w;
  w.u8(0x01);
  std::uint32_t bitmap = 0;
  for (int i = 0; i < 16; ++i) {
    if (children[i] != nullptr) bitmap |= 1u << i;
  }
  w.u8(static_cast<std::uint8_t>(bitmap));
  w.u8(static_cast<std::uint8_t>(bitmap >> 8));
  for (int i = 0; i < 16; ++i) {
    if (children[i] != nullptr) w.raw(*children[i]);
  }
  return w.digest();
}

/// Re-hash a dirty subtree bottom-up. After this, every node's cached hash
/// equals its canonical commitment (a count-1 subtree commits as its single
/// leaf, regardless of how many inner nodes physically wrap it).
void ensure(const Node* n) {
  if (n->leaf || !n->dirty) return;
  const Node* single = nullptr;
  std::array<const Digest*, 16> children{};
  for (int i = 0; i < 16; ++i) {
    const Node* kid = (*n->kids)[i].get();
    if (kid == nullptr) continue;
    ensure(kid);
    children[i] = &kid->hash;
    single = kid;
  }
  n->hash = (n->count == 1) ? single->hash : inner_hash(children);
  n->dirty = false;
}

/// Either an update (leaf hash) or a tombstone, pre-hashed from a Delta.
struct DeltaEntry {
  std::uint64_t key = 0;
  std::optional<Digest> leaf;  ///< nullopt = erase
};

/// Canonical commitment of an explicit (key, leaf_hash) set at `depth`.
/// `leaves` must be sorted by key and unique. Shared by the virtual-merge
/// path (collision regions) and the reference oracle.
Digest build_from_leaves(int depth,
                         std::span<const std::pair<std::uint64_t, Digest>> leaves) {
  if (leaves.empty()) return Digest{};
  if (leaves.size() == 1) return leaves[0].second;
  assert(depth < 16);
  std::array<Digest, 16> slots;
  std::array<const Digest*, 16> children{};
  std::size_t i = 0;
  for (unsigned nib = 0; nib < 16 && i < leaves.size(); ++nib) {
    std::size_t j = i;
    while (j < leaves.size() && nibble(leaves[j].first, depth) == nib) ++j;
    if (j > i) {
      slots[nib] = build_from_leaves(depth + 1, leaves.subspan(i, j - i));
      children[nib] = &slots[nib];
      i = j;
    }
  }
  return inner_hash(children);
}

struct MergeResult {
  Digest digest{};
  std::size_t count = 0;
};

/// Commitment of (subtree at `node`) ⊕ (delta `entries`), computed without
/// touching the tree. Cached hashes must be fresh (root() flushed) before
/// the top-level call.
MergeResult merge(const Node* node, int depth, std::span<const DeltaEntry> entries) {
  if (entries.empty()) {
    if (node == nullptr) return {};
    return {node->hash, node->leaf ? 1u : node->count};
  }
  if (node == nullptr || node->leaf) {
    // Materialize the merged leaf set: the node's leaf (unless overridden by
    // a delta entry with the same key) plus every delta insert. Collision
    // regions are small — at most |delta| + 1 leaves — so building them
    // explicitly keeps this path simple without hurting the O(touched·log n)
    // bound.
    std::vector<std::pair<std::uint64_t, Digest>> leaves;
    leaves.reserve(entries.size() + 1);
    bool node_pending = node != nullptr;
    for (const auto& e : entries) {
      if (node_pending && node->key <= e.key) {
        if (node->key < e.key) leaves.emplace_back(node->key, node->hash);
        node_pending = false;  // equal key: delta overrides the base leaf
        if (node->key == e.key && !e.leaf.has_value()) continue;
      }
      if (e.leaf.has_value()) leaves.emplace_back(e.key, *e.leaf);
    }
    if (node_pending) leaves.emplace_back(node->key, node->hash);
    return {build_from_leaves(depth, leaves), leaves.size()};
  }
  // Inner node: partition the (sorted) delta by this depth's nibble and
  // recurse; untouched children contribute their cached digest for free.
  std::array<Digest, 16> slots;
  std::array<const Digest*, 16> children{};
  std::size_t total = 0;
  const Digest* single = nullptr;
  std::size_t i = 0;
  for (unsigned nib = 0; nib < 16; ++nib) {
    std::size_t j = i;
    while (j < entries.size() && nibble(entries[j].key, depth) == nib) ++j;
    const MergeResult r =
        merge((*node->kids)[nib].get(), depth + 1, entries.subspan(i, j - i));
    i = j;
    if (r.count == 0) continue;
    slots[nib] = r.digest;
    children[nib] = &slots[nib];
    single = &slots[nib];
    total += r.count;
  }
  if (total == 0) return {};
  if (total == 1) return {*single, 1};
  return {inner_hash(children), total};
}

/// Build the physical subtree for a strictly ascending leaf span at `depth`.
/// Mirrors the partition loop of build_from_leaves, but materializes Nodes.
/// `leaf_hashes` runs parallel to `leaves` (precomputed in one batched pass —
/// see from_sorted_leaves). Inner hashes are computed eagerly on the way back
/// up while the children are cache-hot, so the built tree is fully clean and
/// root() afterwards is a cache read, not an O(n) deferred hash pass.
NodePtr build_nodes(int depth,
                    std::span<const std::pair<std::uint64_t, Digest>> leaves,
                    std::span<const Digest> leaf_hashes) {
  if (leaves.size() == 1) {
    return make_leaf(leaves[0].first, leaves[0].second, leaf_hashes[0]);
  }
  assert(depth < 16);
  auto inner = make_inner();
  inner->count = static_cast<std::uint32_t>(leaves.size());
  std::array<const Digest*, 16> children{};
  std::size_t i = 0;
  for (unsigned nib = 0; nib < 16 && i < leaves.size(); ++nib) {
    std::size_t j = i;
    while (j < leaves.size() && nibble(leaves[j].first, depth) == nib) ++j;
    if (j > i) {
      (*inner->kids)[nib] = build_nodes(depth + 1, leaves.subspan(i, j - i),
                                        leaf_hashes.subspan(i, j - i));
      children[nib] = &(*inner->kids)[nib]->hash;
      i = j;
    }
  }
  // leaves.size() >= 2 here, so the count-1 single-leaf rule never applies.
  inner->hash = inner_hash(children);
  inner->dirty = false;
  return inner;
}

/// Push two distinct leaves down until their paths diverge.
NodePtr split(NodePtr a, NodePtr b, int depth) {
  assert(depth < 16);
  auto inner = make_inner();
  inner->count = 2;
  const unsigned na = nibble(a->key, depth);
  const unsigned nb = nibble(b->key, depth);
  if (na == nb) {
    (*inner->kids)[na] = split(std::move(a), std::move(b), depth + 1);
  } else {
    (*inner->kids)[na] = std::move(a);
    (*inner->kids)[nb] = std::move(b);
  }
  return inner;
}

/// Returns true when a new key was added (vs updated in place).
bool insert(NodePtr& slot, int depth, std::uint64_t key, const Digest& value,
            const Digest& leaf) {
  Node* n = slot.get();
  if (n->leaf) {
    if (n->key == key) {
      n->value = value;
      n->hash = leaf;
      return false;
    }
    slot = split(std::move(slot), make_leaf(key, value, leaf), depth);
    return true;
  }
  n->dirty = true;
  NodePtr& kid = (*n->kids)[nibble(key, depth)];
  bool added = true;
  if (!kid) {
    kid = make_leaf(key, value, leaf);
  } else {
    added = insert(kid, depth + 1, key, value, leaf);
  }
  if (added) ++n->count;
  return added;
}

/// Returns true when the key was found and removed.
bool remove(NodePtr& slot, int depth, std::uint64_t key) {
  Node* n = slot.get();
  if (n->leaf) {
    if (n->key != key) return false;
    slot.reset();
    return true;
  }
  NodePtr& kid = (*n->kids)[nibble(key, depth)];
  if (!kid || !remove(kid, depth + 1, key)) return false;
  n->dirty = true;
  if (--n->count == 0) slot.reset();
  return true;
}

/// MerkleMap::leaf_hash of `n` (key, value) pairs in one batched pass:
/// `at(i)` yields pair i. The preimages (0x00 || key || value, 41 bytes) all
/// fit a single compression block, so pairs of them run in interleaved SHA
/// lanes — roughly half the cost of hashing one by one.
template <typename At>
std::vector<Digest> batch_leaf_hashes(std::size_t n, At at) {
  return sha256_fixed_batch<1 + 8 + 32>(n, [&](std::size_t i, std::uint8_t* p) {
    const auto& [key, value] = at(i);
    p[0] = 0x00;
    store_le64(p + 1, key);
    std::memcpy(p + 9, value.data(), 32);
  });
}

}  // namespace

MerkleMap::MerkleMap() = default;
MerkleMap::~MerkleMap() = default;
MerkleMap::MerkleMap(MerkleMap&&) noexcept = default;
MerkleMap& MerkleMap::operator=(MerkleMap&&) noexcept = default;

MerkleMap::MerkleMap(const MerkleMap& other)
    : root_(clone(other.root_.get())), size_(other.size_) {}

MerkleMap& MerkleMap::operator=(const MerkleMap& other) {
  if (this != &other) {
    root_ = clone(other.root_.get());
    size_ = other.size_;
  }
  return *this;
}

Digest MerkleMap::leaf_hash(std::uint64_t key, const Digest& value) {
  HashWriter w;
  w.u8(0x00);
  w.u64(key);
  w.raw(value);
  return w.digest();
}

void MerkleMap::put(std::uint64_t key, const Digest& value) {
  put_hashed(key, value, leaf_hash(key, value));
}

void MerkleMap::put_hashed(std::uint64_t key, const Digest& value,
                           const Digest& lh) {
  if (!root_) {
    root_ = make_leaf(key, value, lh);
    size_ = 1;
    return;
  }
  if (insert(root_, 0, key, value, lh)) ++size_;
}

MerkleMap MerkleMap::from_sorted_leaves(
    std::span<const std::pair<std::uint64_t, Digest>> leaves) {
#ifndef NDEBUG
  for (std::size_t i = 1; i < leaves.size(); ++i) {
    assert(leaves[i - 1].first < leaves[i].first);
  }
#endif
  MerkleMap m;
  if (leaves.empty()) return m;
  const std::vector<Digest> leaf_hashes =
      batch_leaf_hashes(leaves.size(), [&](std::size_t i) {
        return std::tie(leaves[i].first, leaves[i].second);
      });
  m.root_ = build_nodes(0, leaves, leaf_hashes);
  m.size_ = leaves.size();
  return m;
}

void MerkleMap::update(
    std::span<const std::pair<std::uint64_t, std::optional<Digest>>> entries) {
  std::vector<std::size_t> puts;
  puts.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].second.has_value()) puts.push_back(i);
  }
  const std::vector<Digest> leaf_hashes =
      batch_leaf_hashes(puts.size(), [&](std::size_t j) {
        const auto& [key, value] = entries[puts[j]];
        return std::tie(key, *value);
      });
  std::size_t j = 0;
  for (const auto& [key, value] : entries) {
    if (value.has_value()) {
      put_hashed(key, *value, leaf_hashes[j++]);
    } else {
      erase(key);
    }
  }
}

void MerkleMap::erase(std::uint64_t key) {
  if (root_ && remove(root_, 0, key)) --size_;
}

bool MerkleMap::contains(std::uint64_t key) const {
  const Node* n = root_.get();
  for (int depth = 0; n != nullptr; ++depth) {
    if (n->leaf) return n->key == key;
    n = (*n->kids)[nibble(key, depth)].get();
  }
  return false;
}

Digest MerkleMap::root() const {
  if (!root_) return Digest{};
  ensure(root_.get());
  return root_->hash;
}

MerkleMapProof MerkleMap::prove(std::uint64_t key) const {
  (void)root();  // flush cached hashes so every node digest is canonical
  MerkleMapProof proof;
  const Node* n = root_.get();
  int depth = 0;
  // Descend while the subtree holds >= 2 keys: each such level is an inner
  // node in the canonical commitment and contributes one proof step.
  while (n != nullptr && !n->leaf && n->count >= 2) {
    MerkleMapProofStep step;
    const unsigned nib = nibble(key, depth);
    const Node* next = nullptr;
    for (unsigned i = 0; i < 16; ++i) {
      const Node* kid = (*n->kids)[i].get();
      if (kid == nullptr) continue;
      step.bitmap |= static_cast<std::uint16_t>(1u << i);
      if (i == nib) {
        next = kid;
      } else {
        step.siblings.push_back(kid->hash);
      }
    }
    proof.steps.push_back(std::move(step));
    if (next == nullptr) return proof;  // absent slot: non-membership
    n = next;
    ++depth;
  }
  // A count-1 subtree commits as its single leaf regardless of how many
  // physical inner nodes wrap it (erase leaves such chains behind).
  while (n != nullptr && !n->leaf) {
    const Node* single = nullptr;
    for (unsigned i = 0; i < 16; ++i) {
      if (const Node* kid = (*n->kids)[i].get(); kid != nullptr) single = kid;
    }
    n = single;
  }
  if (n == nullptr || n->key == key) return proof;  // empty map / membership
  proof.has_terminal_leaf = true;  // non-membership: path ends at another key
  proof.terminal_key = n->key;
  proof.terminal_value = n->value;
  return proof;
}

namespace {

/// Recompute one inner-node digest from a proof step, substituting `ours`
/// (when given) for the child at `our_nib`. Must mirror inner_hash() byte
/// for byte.
Digest fold_step(const MerkleMapProofStep& step,
                 std::optional<unsigned> our_nib, const Digest& ours) {
  HashWriter w;
  w.u8(0x01);
  w.u8(static_cast<std::uint8_t>(step.bitmap));
  w.u8(static_cast<std::uint8_t>(step.bitmap >> 8));
  std::size_t s = 0;
  for (unsigned i = 0; i < 16; ++i) {
    if (((step.bitmap >> i) & 1u) == 0) continue;
    if (our_nib.has_value() && i == *our_nib) {
      w.raw(ours);
    } else {
      w.raw(step.siblings[s++]);
    }
  }
  return w.digest();
}

}  // namespace

bool MerkleMap::verify(const Digest& root, std::uint64_t key,
                       const std::optional<Digest>& value,
                       const MerkleMapProof& proof) {
  const std::size_t depths = proof.steps.size();
  if (depths > 16) return false;
  Digest cur{};
  std::size_t deepest = depths;  // steps [0, deepest) are folded around `cur`
  if (value.has_value()) {
    // Membership: the chain starts at the key's own leaf.
    if (proof.has_terminal_leaf) return false;
    cur = leaf_hash(key, *value);
  } else if (proof.has_terminal_leaf) {
    // Non-membership, colliding leaf: the subtree on the key's path is the
    // single leaf of a *different* key sharing the traversed prefix.
    if (proof.terminal_key == key) return false;
    for (std::size_t d = 0; d < depths; ++d) {
      if (nibble(proof.terminal_key, static_cast<int>(d)) !=
          nibble(key, static_cast<int>(d))) {
        return false;
      }
    }
    cur = leaf_hash(proof.terminal_key, proof.terminal_value);
  } else if (depths == 0) {
    // Non-membership, empty map: the all-zero digest commits to "no keys".
    return root == Digest{};
  } else {
    // Non-membership, absent slot: the deepest step has no child at the
    // key's nibble; its digest is rebuilt from all its children.
    const MerkleMapProofStep& last = proof.steps[depths - 1];
    const unsigned nib = nibble(key, static_cast<int>(depths - 1));
    if ((last.bitmap >> nib) & 1u) return false;
    if (last.bitmap == 0) return false;
    if (last.siblings.size() !=
        static_cast<std::size_t>(std::popcount(last.bitmap))) {
      return false;
    }
    cur = fold_step(last, std::nullopt, Digest{});
    deepest = depths - 1;
  }
  for (std::size_t i = deepest; i-- > 0;) {
    const MerkleMapProofStep& step = proof.steps[i];
    const unsigned nib = nibble(key, static_cast<int>(i));
    if (((step.bitmap >> nib) & 1u) == 0) return false;
    if (step.siblings.size() + 1 !=
        static_cast<std::size_t>(std::popcount(step.bitmap))) {
      return false;
    }
    cur = fold_step(step, nib, cur);
  }
  return cur == root;
}

Bytes MerkleMapProof::encode() const {
  ByteWriter w;
  w.u8(0x01);  // format version
  w.u8(has_terminal_leaf ? 0x01 : 0x00);
  w.u8(static_cast<std::uint8_t>(steps.size()));
  for (const MerkleMapProofStep& step : steps) {
    w.u8(static_cast<std::uint8_t>(step.bitmap));
    w.u8(static_cast<std::uint8_t>(step.bitmap >> 8));
    w.u8(static_cast<std::uint8_t>(step.siblings.size()));
    for (const Digest& d : step.siblings) w.raw(d);
  }
  if (has_terminal_leaf) {
    w.u64(terminal_key);
    w.raw(terminal_value);
  }
  return w.take();
}

Result<MerkleMapProof> MerkleMapProof::decode(const Bytes& bytes) {
  ByteReader r(bytes);
  const auto version = r.u8();
  if (!version.ok()) return version.error();
  if (version.value() != 0x01) {
    return make_error("proof.bad_version", "unknown proof format version");
  }
  const auto flags = r.u8();
  if (!flags.ok()) return flags.error();
  if ((flags.value() & ~0x01u) != 0) {
    return make_error("proof.bad_flags", "reserved flag bits set");
  }
  const auto step_count = r.u8();
  if (!step_count.ok()) return step_count.error();
  if (step_count.value() > 16) {
    return make_error("proof.bad_depth", "more steps than key nibbles");
  }
  MerkleMapProof proof;
  proof.steps.reserve(step_count.value());
  for (unsigned i = 0; i < step_count.value(); ++i) {
    MerkleMapProofStep step;
    const auto lo = r.u8();
    if (!lo.ok()) return lo.error();
    const auto hi = r.u8();
    if (!hi.ok()) return hi.error();
    step.bitmap = static_cast<std::uint16_t>(lo.value() |
                                             (unsigned{hi.value()} << 8));
    const auto sibling_count = r.u8();
    if (!sibling_count.ok()) return sibling_count.error();
    const unsigned present = static_cast<unsigned>(std::popcount(step.bitmap));
    // An honest step carries either every present child (terminating
    // absent-slot step) or all but the one on the path.
    if (sibling_count.value() > present ||
        sibling_count.value() + 1 < present) {
      return make_error("proof.bad_sibling_count",
                        "sibling count inconsistent with bitmap");
    }
    step.siblings.reserve(sibling_count.value());
    for (unsigned s = 0; s < sibling_count.value(); ++s) {
      auto raw = r.raw(32);
      if (!raw.ok()) return raw.error();
      Digest d;
      std::copy(raw.value().begin(), raw.value().end(), d.begin());
      step.siblings.push_back(d);
    }
    proof.steps.push_back(std::move(step));
  }
  if ((flags.value() & 0x01u) != 0) {
    proof.has_terminal_leaf = true;
    const auto key = r.u64();
    if (!key.ok()) return key.error();
    proof.terminal_key = key.value();
    auto raw = r.raw(32);
    if (!raw.ok()) return raw.error();
    std::copy(raw.value().begin(), raw.value().end(),
              proof.terminal_value.begin());
  }
  if (!r.exhausted()) {
    return make_error("proof.trailing_bytes", "proof has trailing bytes");
  }
  return proof;
}

Digest MerkleMap::root_with(const Delta& delta) const {
  if (delta.empty()) return root();
  (void)root();  // flush cached hashes so merge() can trust them
  std::vector<DeltaEntry> entries;
  entries.reserve(delta.size());
  for (const auto& [key, value] : delta) {
    entries.push_back(DeltaEntry{
        key, value.has_value() ? std::optional(leaf_hash(key, *value))
                               : std::nullopt});
  }
  return merge(root_.get(), 0, entries).digest;
}

std::size_t MerkleMap::size_with(const Delta& delta) const {
  std::size_t n = size_;
  for (const auto& [key, value] : delta) {
    const bool present = contains(key);
    if (value.has_value() && !present) ++n;
    if (!value.has_value() && present) --n;
  }
  return n;
}

Digest merkle_map_reference_root(
    std::vector<std::pair<std::uint64_t, Digest>> leaves) {
  for (auto& [key, value] : leaves) value = MerkleMap::leaf_hash(key, value);
  std::sort(leaves.begin(), leaves.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return build_from_leaves(0, leaves);
}

}  // namespace mv::crypto
