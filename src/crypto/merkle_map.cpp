#include "crypto/merkle_map.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <span>
#include <tuple>

#include "common/job_queue.h"

namespace mv::crypto {

namespace {

/// Most-significant-nibble-first path through the key, depth 0..15.
unsigned nibble(std::uint64_t key, int depth) {
  return static_cast<unsigned>((key >> (60 - 4 * depth)) & 0xF);
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

/// The top `depth` nibbles of `key`, the rest zeroed: the prefix of the
/// subtree at `depth` on the key's path.
std::uint64_t prefix_of(std::uint64_t key, int depth) {
  return depth == 0 ? 0 : key & (~std::uint64_t{0} << (64 - 4 * depth));
}

using StagedNode = MerkleMap::Staged::Node;

/// Canonical commitment of an explicit (key, leaf_hash) set at `depth`.
/// `leaves` must be sorted by key and unique. Shared by the staging walk
/// (collision regions), which passes `nodes` to record the inner digests in
/// pre-order, and the reference oracle.
Digest build_from_leaves(int depth,
                         std::span<const std::pair<std::uint64_t, Digest>> leaves,
                         std::vector<StagedNode>* nodes = nullptr) {
  if (leaves.empty()) return Digest{};
  if (leaves.size() == 1) return leaves[0].second;
  assert(depth < 16);
  const std::size_t at = nodes != nullptr ? nodes->size() : 0;
  if (nodes != nullptr) {
    nodes->push_back({prefix_of(leaves[0].first, depth), {},
                      static_cast<std::uint8_t>(depth)});
  }
  std::array<Digest, 16> slots;
  std::array<const Digest*, 16> children{};
  std::size_t i = 0;
  for (unsigned nib = 0; nib < 16 && i < leaves.size(); ++nib) {
    std::size_t j = i;
    while (j < leaves.size() && nibble(leaves[j].first, depth) == nib) ++j;
    if (j > i) {
      slots[nib] = build_from_leaves(depth + 1, leaves.subspan(i, j - i), nodes);
      children[nib] = &slots[nib];
      i = j;
    }
  }
  const Digest hash = inner_hash(children);
  if (nodes != nullptr) (*nodes)[at].hash = hash;
  return hash;
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

/// The leaf hashes of the puts (engaged values) among `entries`, in order,
/// in one batched pass.
std::vector<Digest> put_leaf_hashes(std::span<const MerkleMap::Entry> entries) {
  std::vector<std::size_t> puts;
  puts.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].second.has_value()) puts.push_back(i);
  }
  return batch_leaf_hashes(puts.size(), [&](std::size_t j) {
    const auto& [key, value] = entries[puts[j]];
    return std::tie(key, *value);
  });
}

/// Start offset of each nibble's run in a key-sorted span at `depth`;
/// run `nib` is [bounds[nib], bounds[nib + 1]).
template <typename Item, typename Key>
std::array<std::size_t, 17> nibble_runs(std::span<const Item> items, int depth,
                                        Key key) {
  std::array<std::size_t, 17> bounds{};
  std::size_t i = 0;
  for (unsigned nib = 0; nib < 16; ++nib) {
    bounds[nib] = i;
    while (i < items.size() && nibble(key(items[i]), depth) == nib) ++i;
  }
  bounds[16] = i;
  return bounds;
}

}  // namespace

MerkleMap::Ref MerkleMap::new_leaf(std::uint64_t key, const Digest& value,
                                   const Digest& hash) {
  std::uint32_t index = 0;
  if (free_leaves_.empty()) {
    index = static_cast<std::uint32_t>(leaves_.size());
    assert(index < kLeafBit);
    leaves_.push_back(Leaf{key, value, hash});
  } else {
    index = free_leaves_.back();
    free_leaves_.pop_back();
    leaves_[index] = Leaf{key, value, hash};
  }
  return leaf_ref(index);
}

MerkleMap::Ref MerkleMap::new_inner(std::uint32_t count) {
  Inner n;
  n.count = count;
  if (free_inners_.empty()) {
    assert(inners_.size() < kLeafBit);
    inners_.push_back(n);
    return static_cast<Ref>(inners_.size() - 1);
  }
  const Ref index = free_inners_.back();
  free_inners_.pop_back();
  inners_[index] = n;
  return index;
}

void MerkleMap::ensure(Ref r) const {
  if (r == kNone || is_leaf(r) || !inners_[r].dirty) return;
  const Inner& n = inners_[r];
  std::array<const Digest*, 16> children{};
  for (int i = 0; i < 16; ++i) {
    const Ref kid = n.kids[i];
    if (kid == kNone) continue;
    ensure(kid);
    children[i] = &hash_of(kid);
  }
  n.hash = inner_hash(children);
  n.dirty = false;
}

MerkleMap::Committed MerkleMap::merge(Ref node, int depth,
                                      std::span<const Staged::Update> updates,
                                      std::vector<Staged::Node>& nodes) const {
  if (updates.empty()) {
    if (node == kNone) return {};
    return {hash_of(node), count_of(node)};
  }
  if (node == kNone || is_leaf(node)) {
    // Materialize the merged leaf set: the node's leaf (unless overridden by
    // an update with the same key) plus every put. Collision regions are
    // small — at most |delta| + 1 leaves — so building them explicitly keeps
    // this path simple without hurting the O(touched·log n) bound.
    std::vector<std::pair<std::uint64_t, Digest>> leaves;
    leaves.reserve(updates.size() + 1);
    const Leaf* pending = node != kNone ? &leaf(node) : nullptr;
    for (const Staged::Update& u : updates) {
      if (pending != nullptr && pending->key <= u.key) {
        if (pending->key < u.key) leaves.emplace_back(pending->key, pending->hash);
        const bool overridden = pending->key == u.key;
        pending = nullptr;  // equal key: the update overrides the base leaf
        if (overridden && !u.value.has_value()) continue;
      }
      if (u.value.has_value()) leaves.emplace_back(u.key, u.leaf);
    }
    if (pending != nullptr) leaves.emplace_back(pending->key, pending->hash);
    return {build_from_leaves(depth, leaves, &nodes), leaves.size()};
  }
  // Inner node: partition the (sorted) updates by this depth's nibble and
  // recurse; untouched children contribute their cached digest for free.
  // The node's record goes in before its children's (pre-order) and is
  // dropped again if the merged subtree holds fewer than two keys.
  const std::size_t at = nodes.size();
  nodes.push_back({prefix_of(updates[0].key, depth), {}, static_cast<std::uint8_t>(depth)});
  const Inner& n = inners_[node];
  const auto runs = nibble_runs(updates, depth,
                                [](const Staged::Update& u) { return u.key; });
  std::array<Digest, 16> slots;
  std::array<const Digest*, 16> children{};
  std::size_t total = 0;
  const Digest* single = nullptr;
  for (unsigned nib = 0; nib < 16; ++nib) {
    const Committed r = merge(n.kids[nib], depth + 1,
                              updates.subspan(runs[nib], runs[nib + 1] - runs[nib]),
                              nodes);
    if (r.count == 0) continue;
    slots[nib] = r.root;
    children[nib] = &slots[nib];
    single = &slots[nib];
    total += r.count;
  }
  if (total < 2) {
    // At most one key left below: no child recorded a node either.
    assert(nodes.size() == at + 1);
    nodes.pop_back();
    if (total == 0) return {};
    return {*single, 1};
  }
  nodes[at].hash = inner_hash(children);
  return {nodes[at].hash, total};
}

MerkleMap::Ref MerkleMap::split(Ref a, Ref b, int depth) {
  const std::uint64_t ka = leaf(a).key;
  const std::uint64_t kb = leaf(b).key;
  const Ref top = new_inner(2);
  Ref n = top;
  for (;; ++depth) {
    assert(depth < 16);
    const unsigned na = nibble(ka, depth);
    const unsigned nb = nibble(kb, depth);
    if (na != nb) {
      inners_[n].kids[na] = a;
      inners_[n].kids[nb] = b;
      return top;
    }
    const Ref next = new_inner(2);
    inners_[n].kids[na] = next;
    n = next;
  }
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
  // Descend to the key's slot, remembering the inner nodes on the way.
  std::array<Ref, 16> path;
  int depth = 0;
  Ref r = root_;
  while (r != kNone && !is_leaf(r)) {
    path[depth] = r;
    r = inners_[r].kids[nibble(key, depth)];
    ++depth;
  }
  bool added = true;
  Ref replacement = kNone;  // new subtree for the slot, if it changes
  if (r == kNone) {
    replacement = new_leaf(key, value, lh);
  } else if (Leaf& l = leaf(r); l.key == key) {
    l.value = value;
    l.hash = lh;
    added = false;
  } else {
    replacement = split(r, new_leaf(key, value, lh), depth);
  }
  if (replacement != kNone) {
    if (depth == 0) {
      root_ = replacement;
    } else {
      inners_[path[depth - 1]].kids[nibble(key, depth - 1)] = replacement;
    }
  }
  for (int d = 0; d < depth; ++d) {
    Inner& n = inners_[path[d]];
    n.dirty = true;
    if (added) ++n.count;
  }
  if (added) ++size_;
}

void MerkleMap::update(std::span<const Entry> entries) {
  const std::vector<Digest> leaf_hashes = put_leaf_hashes(entries);
  if (root_ == kNone) leaves_.reserve(leaf_hashes.size());  // a bulk load
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
  std::array<Ref, 16> path;
  int depth = 0;
  Ref r = root_;
  while (r != kNone && !is_leaf(r)) {
    path[depth] = r;
    r = inners_[r].kids[nibble(key, depth)];
    ++depth;
  }
  if (r == kNone || leaf(r).key != key) return;
  free_leaves_.push_back(r & ~kLeafBit);
  --size_;
  // Walk back up. While `relink` holds, the slot on the path changes: first
  // to empty, then to the sole leaf of each node the erase left with one key
  // (that node is freed), which keeps the shape canonical. Above the first
  // node that keeps >= 2 keys, only counts and dirty flags change.
  Ref replacement = kNone;
  bool relink = true;
  for (int d = depth - 1; d >= 0; --d) {
    Inner& n = inners_[path[d]];
    n.dirty = true;
    --n.count;
    if (!relink) continue;
    n.kids[nibble(key, d)] = replacement;
    if (n.count == 1) {
      // Its one remaining child is a leaf: an inner child spans >= 2 keys.
      replacement = kNone;
      for (const Ref kid : n.kids) {
        if (kid != kNone) replacement = kid;
      }
      free_inners_.push_back(path[d]);
    } else {
      relink = false;
    }
  }
  if (relink) root_ = replacement;
  if (root_ == kNone) *this = MerkleMap();  // drop the arenas with the last key
}

bool MerkleMap::contains(std::uint64_t key) const {
  Ref r = root_;
  for (int depth = 0; r != kNone; ++depth) {
    if (is_leaf(r)) return leaf(r).key == key;
    r = inners_[r].kids[nibble(key, depth)];
  }
  return false;
}

Digest MerkleMap::root() const {
  if (root_ == kNone) return Digest{};
  ensure(root_);
  return hash_of(root_);
}

void MerkleMap::flush(JobQueue& queue) const {
  if (root_ == kNone || is_leaf(root_) || !inners_[root_].dirty) return;
  // A clean node's whole subtree is clean (put and erase dirty every node on
  // their path), so only dirty depth-1 nodes can lead to dirty subtrees.
  std::vector<Ref> subtrees;
  for (const Ref kid : inners_[root_].kids) {
    if (kid == kNone || is_leaf(kid) || !inners_[kid].dirty) continue;
    for (const Ref grandkid : inners_[kid].kids) {
      if (grandkid != kNone && !is_leaf(grandkid) && inners_[grandkid].dirty) {
        subtrees.push_back(grandkid);
      }
    }
  }
  queue.run_batch(JobClass::kValidation, subtrees.size(),
                  [&](std::size_t i) { ensure(subtrees[i]); });
}

MerkleMapProof MerkleMap::prove(std::uint64_t key) const {
  (void)root();  // flush cached hashes so every node digest is canonical
  MerkleMapProof proof;
  Ref r = root_;
  int depth = 0;
  // Every inner node spans >= 2 keys, so each one on the path is an inner
  // node of the canonical commitment and contributes one proof step.
  while (r != kNone && !is_leaf(r)) {
    const Inner& n = inners_[r];
    MerkleMapProofStep step;
    const unsigned nib = nibble(key, depth);
    for (unsigned i = 0; i < 16; ++i) {
      const Ref kid = n.kids[i];
      if (kid == kNone) continue;
      step.bitmap |= static_cast<std::uint16_t>(1u << i);
      if (i != nib) {
        proof.siblings.push_back(hash_of(kid));
        ++step.sibling_count;
      }
    }
    proof.steps.push_back(step);
    r = n.kids[nib];
    if (r == kNone) return proof;  // absent slot: non-membership
    ++depth;
  }
  if (r == kNone || leaf(r).key == key) return proof;  // empty map / membership
  proof.has_terminal_leaf = true;  // non-membership: path ends at another key
  proof.terminal_key = leaf(r).key;
  proof.terminal_value = leaf(r).value;
  return proof;
}

namespace {

/// Recompute one inner-node digest from a proof step and its `siblings`,
/// substituting `ours` (when given) for the child at `our_nib`. Must mirror
/// inner_hash() byte for byte.
Digest fold_step(const MerkleMapProofStep& step, std::span<const Digest> siblings,
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
      w.raw(siblings[s++]);
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
  // Steps are folded deepest first, so their siblings are taken from the
  // back; every step's count must be backed by digests.
  std::size_t end = 0;
  for (const MerkleMapProofStep& step : proof.steps) end += step.sibling_count;
  if (end != proof.siblings.size()) return false;
  const auto take = [&](const MerkleMapProofStep& step) {
    end -= step.sibling_count;
    return std::span(proof.siblings).subspan(end, step.sibling_count);
  };
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
    if (last.sibling_count != std::popcount(last.bitmap)) return false;
    cur = fold_step(last, take(last), std::nullopt, Digest{});
    deepest = depths - 1;
  }
  for (std::size_t i = deepest; i-- > 0;) {
    const MerkleMapProofStep& step = proof.steps[i];
    const unsigned nib = nibble(key, static_cast<int>(i));
    if (((step.bitmap >> nib) & 1u) == 0) return false;
    if (step.sibling_count + 1 != std::popcount(step.bitmap)) return false;
    cur = fold_step(step, take(step), nib, cur);
  }
  return cur == root;
}

Bytes MerkleMapProof::encode() const {
  ByteWriter w;
  w.reserve(encoded_size());
  write(w);
  return w.take();
}

std::size_t MerkleMapProof::encoded_size() const {
  return 3 + (has_terminal_leaf ? 8 + sizeof(Digest) : 0) + 3 * steps.size() +
         sizeof(Digest) * siblings.size();
}

void MerkleMapProof::write(ByteWriter& w) const {
  w.u8(0x01);  // format version
  w.u8(has_terminal_leaf ? 0x01 : 0x00);
  w.u8(static_cast<std::uint8_t>(steps.size()));
  std::size_t s = 0;
  for (const MerkleMapProofStep& step : steps) {
    w.u8(static_cast<std::uint8_t>(step.bitmap));
    w.u8(static_cast<std::uint8_t>(step.bitmap >> 8));
    w.u8(step.sibling_count);
    for (std::size_t end = s + step.sibling_count; s < end; ++s) w.raw(siblings[s]);
  }
  if (has_terminal_leaf) {
    w.u64(terminal_key);
    w.raw(terminal_value);
  }
}

Result<MerkleMapProof> MerkleMapProof::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  if (r.read_u8() != 0x01) r.fail("proof.bad_version", "unknown proof format version");
  const std::uint8_t flags = r.read_u8();
  if ((flags & ~0x01u) != 0) r.fail("proof.bad_flags", "reserved flag bits set");
  const std::uint8_t step_count = r.read_u8();
  if (step_count > 16) r.fail("proof.bad_depth", "more steps than key nibbles");
  MerkleMapProof proof;
  proof.steps.reserve(step_count);
  // At most 16 digests per step, so one reservation holds them all.
  proof.siblings.reserve(std::min<std::size_t>(16u * step_count,
                                               r.remaining() / sizeof(Digest)));
  for (unsigned i = 0; i < step_count; ++i) {
    MerkleMapProofStep step;
    const std::uint8_t lo = r.read_u8();
    const std::uint8_t hi = r.read_u8();
    step.bitmap = static_cast<std::uint16_t>(lo | (unsigned{hi} << 8));
    const std::uint8_t sibling_count = r.read_u8();
    const unsigned present = static_cast<unsigned>(std::popcount(step.bitmap));
    // An honest step carries either every present child (terminating
    // absent-slot step) or all but the one on the path.
    if (sibling_count > present || sibling_count + 1u < present) {
      r.fail("proof.bad_sibling_count", "sibling count inconsistent with bitmap");
    }
    step.sibling_count = sibling_count;
    // The step's siblings are contiguous on the wire and in the proof: one
    // read (one bounds check) fills them all.
    const std::size_t at = proof.siblings.size();
    proof.siblings.resize(at + step.sibling_count);
    const std::span<std::byte> raw =
        std::as_writable_bytes(std::span(proof.siblings).subspan(at));
    r.read_fixed({reinterpret_cast<std::uint8_t*>(raw.data()), raw.size()});
    proof.steps.push_back(step);
  }
  if ((flags & 0x01u) != 0) {
    proof.has_terminal_leaf = true;
    proof.terminal_key = r.read_u64();
    r.read_fixed(proof.terminal_value);
  }
  return r.finish(std::move(proof), "proof.trailing_bytes");
}

MerkleMap::Staged MerkleMap::stage(std::span<const Entry> delta) const {
#ifndef NDEBUG
  for (std::size_t i = 1; i < delta.size(); ++i) {
    assert(delta[i - 1].first < delta[i].first);
  }
#endif
  Staged staged;
  staged.base_root = root();  // also flushes the cached hashes merge() trusts
  if (delta.empty()) {
    staged.committed = {staged.base_root, size_};
    return staged;
  }
  const std::vector<Digest> leaf_hashes = put_leaf_hashes(delta);
  staged.updates.reserve(delta.size());
  std::size_t j = 0;
  for (const auto& [key, value] : delta) {
    staged.updates.push_back(
        {key, value, value.has_value() ? leaf_hashes[j++] : Digest{}});
  }
  staged.nodes.reserve(2 * delta.size());
  staged.committed = merge(root_, 0, staged.updates, staged.nodes);
  return staged;
}

void MerkleMap::adopt(const Staged& staged) {
  const bool same_base = root() == staged.base_root;
  if (root_ == kNone) leaves_.reserve(staged.updates.size());
  for (const Staged::Update& u : staged.updates) {
    if (u.value.has_value()) {
      put_hashed(u.key, *u.value, u.leaf);
    } else {
      erase(u.key);
    }
  }
  if (!same_base || root_ == kNone) return;
  std::size_t next = 0;
  (void)stamp(root_, 0, 0, staged.nodes, next);
}

bool MerkleMap::stamp(Ref r, int depth, std::uint64_t prefix,
                      std::span<const Staged::Node> nodes, std::size_t& next) {
  // A clean node's whole subtree is clean (put and erase dirty every node on
  // their path), so the walk descends through dirty nodes only.
  if (r == kNone || is_leaf(r) || !inners_[r].dirty) return true;
  while (next < nodes.size() &&
         (nodes[next].prefix < prefix ||
          (nodes[next].prefix == prefix && nodes[next].depth < depth))) {
    ++next;
  }
  const Digest* hash = nullptr;
  if (next < nodes.size() && nodes[next].prefix == prefix && nodes[next].depth == depth) {
    hash = &nodes[next++].hash;
  }
  bool clean = hash != nullptr;
  for (unsigned nib = 0; nib < 16; ++nib) {
    const Ref kid = inners_[r].kids[nib];
    const std::uint64_t kid_prefix =
        prefix | (std::uint64_t{nib} << (60 - 4 * depth));
    clean = stamp(kid, depth + 1, kid_prefix, nodes, next) && clean;
  }
  if (!clean) return false;
  inners_[r].hash = *hash;
  inners_[r].dirty = false;
  return true;
}

std::size_t MerkleMap::dirty_nodes() const {
  std::size_t dirty = 0;
  const auto walk = [&](const auto& self, Ref r) -> void {
    if (r == kNone || is_leaf(r)) return;
    if (inners_[r].dirty) ++dirty;
    for (const Ref kid : inners_[r].kids) self(self, kid);
  };
  walk(walk, root_);
  return dirty;
}

Digest merkle_map_reference_root(
    std::vector<std::pair<std::uint64_t, Digest>> leaves) {
  for (auto& [key, value] : leaves) value = MerkleMap::leaf_hash(key, value);
  std::sort(leaves.begin(), leaves.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return build_from_leaves(0, leaves);
}

}  // namespace mv::crypto
