#include "ledger/consensus.h"

#include "common/logging.h"
#include "ledger/header_check.h"

namespace mv::ledger {

namespace {

Bytes vote_signing_bytes(std::int64_t height, const crypto::Digest& block_hash) {
  ByteWriter w;
  w.str("vote");
  w.i64(height);
  w.raw(block_hash);
  return w.take();
}

struct VoteMsg {
  std::int64_t height = 0;
  crypto::Digest block_hash{};
  crypto::PublicKey voter;
  crypto::Signature sig;

  [[nodiscard]] Bytes encode() const {
    ByteWriter w;
    w.i64(height);
    w.raw(block_hash);
    crypto::write_key(w, voter);
    crypto::write_signature(w, sig);
    return w.take();
  }

  [[nodiscard]] static Result<VoteMsg> decode(std::span<const std::uint8_t> bytes) {
    ByteReader r(bytes);
    VoteMsg v;
    v.height = r.read_i64();
    r.read_fixed(v.block_hash);
    v.voter = crypto::read_key(r);
    v.sig = crypto::read_signature(r);
    return r.finish(v, "vote.trailing_bytes");
  }
};

}  // namespace

ValidatorCommittee::ValidatorCommittee(
    net::Network& network, std::size_t n,
    std::shared_ptr<const ContractRegistry> contracts,
    const LedgerState& genesis, std::size_t max_txs_per_block, Rng& rng,
    ValidationConfig validation)
    : network_(network) {
  // Wallets first: every replica needs the full proposer order.
  std::vector<crypto::Wallet> wallets;
  wallets.reserve(n);
  ChainConfig config;
  config.max_txs_per_block = max_txs_per_block;
  config.validation = validation;
  for (std::size_t i = 0; i < n; ++i) {
    wallets.emplace_back(rng);
    config.validators.push_back(wallets.back().public_key());
  }
  validators_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    validators_.push_back(Validator{std::move(wallets[i]),
                                    Replica(config, contracts, genesis),
                                    NodeId::invalid(),
                                    rng.fork(),
                                    std::nullopt,
                                    {}});
    validators_.back().node = network_.add_node(
        [this, i](const net::Message& msg) { on_message(i, msg); });
  }
}

void ValidatorCommittee::submit(const Transaction& tx) {
  const Tick now = network_.clock().now();
  for (auto& v : validators_) {
    (void)v.replica.submit(tx, now);
  }
}

bool ValidatorCommittee::run_round(Tick timeout) {
  ++stats_.rounds;
  // Expire transactions that have lingered past their TTL (nonce-gapped or
  // priced out) before this round selects candidates.
  for (auto& v : validators_) {
    (void)v.replica.pool().sweep_expired(network_.clock().now());
  }
  // Rotation follows the committee's best height, so a lagging replica 0
  // cannot anchor leader election to a stale view.
  std::int64_t target_height = 0;
  for (const auto& v : validators_) {
    target_height = std::max(target_height, v.replica.chain().height());
  }
  Validator& leader =
      validators_[proposer_index(target_height, validators_.size())];
  const Tick round_start = network_.clock().now();

  const Block block = leader.replica.propose(leader.wallet, round_start, leader.rng);
  // Encode the proposal once; the local delivery and every broadcast
  // recipient share the same buffer.
  const auto encoded = std::make_shared<const Bytes>(block.encode());
  net::Message self_propose;
  self_propose.from = leader.node;
  self_propose.to = leader.node;
  self_propose.topic = "propose";
  self_propose.payload_buf = encoded;
  handle_propose(leader, self_propose);
  network_.broadcast(leader.node, "propose", encoded);
  network_.run_until_idle(timeout);

  const bool committed = leader.replica.chain().height() >= target_height + 1;
  if (committed) {
    ++stats_.committed_blocks;
    stats_.committed_txs += block.txs.size();
    stats_.total_commit_ticks +=
        static_cast<double>(network_.clock().now() - round_start);
  } else {
    ++stats_.failed_rounds;
  }
  return committed;
}

void ValidatorCommittee::on_message(std::size_t validator_index,
                                    const net::Message& msg) {
  Validator& v = validators_[validator_index];
  if (msg.topic == "propose") {
    handle_propose(v, msg);
  } else if (msg.topic == "vote") {
    handle_vote(v, msg.payload());
  } else if (msg.topic == "sync_req") {
    handle_sync_request(v, msg);
  } else if (msg.topic == "sync_resp") {
    handle_sync_response(v, msg.payload());
  }
}

void ValidatorCommittee::handle_propose(Validator& v, const net::Message& msg) {
  auto block = Block::decode(msg.payload());
  if (!block.ok()) return;
  const Blockchain& chain = v.replica.chain();
  if (block.value().header.height > chain.height()) {
    // We are behind (missed commits during a partition): pull the missing
    // blocks from whoever is ahead, starting at our own height.
    ByteWriter w;
    w.i64(chain.height());
    network_.broadcast(v.node, "sync_req", w.take());
    return;
  }
  if (block.value().header.height < chain.height()) {
    // The proposer itself is behind: ship it the blocks it missed so the
    // next round's leader rotation is computed from a caught-up replica.
    serve_blocks(v, msg.from, block.value().header.height);
    return;
  }
  if (!chain.validate(block.value()).ok()) {
    MV_LOG_DEBUG << "validator rejected proposal at height "
                 << block.value().header.height;
    return;
  }
  v.pending = std::move(block).value();
  broadcast_vote(v, *v.pending);
  try_commit(v);
}

void ValidatorCommittee::serve_blocks(Validator& v, NodeId to,
                                      std::int64_t from_height) {
  const Blockchain& chain = v.replica.chain();
  for (std::int64_t h = std::max(chain.base_height(), from_height);
       h < chain.height(); ++h) {
    network_.send(v.node, to, "sync_resp", chain.block_at(h)->encode());
  }
}

void ValidatorCommittee::handle_sync_request(Validator& v,
                                             const net::Message& msg) {
  ByteReader r(msg.payload());
  const std::int64_t from_height = r.read_i64();
  if (!r.finish("sync.trailing_bytes").ok()) return;
  serve_blocks(v, msg.from, from_height);
}

void ValidatorCommittee::handle_sync_response(Validator& v, const Bytes& payload) {
  auto block = Block::decode(payload);
  if (!block.ok()) return;
  if (block.value().header.height != v.replica.chain().height()) return;  // stale/dup
  commit(v, block.value());
}

void ValidatorCommittee::broadcast_vote(Validator& v, const Block& block) {
  VoteMsg vote;
  vote.height = block.header.height;
  vote.block_hash = block.header.hash();
  vote.voter = v.wallet.public_key();
  vote.sig = v.wallet.sign(vote_signing_bytes(vote.height, vote.block_hash), v.rng);
  const auto encoded = std::make_shared<const Bytes>(vote.encode());
  // Count our own vote, then tell everyone else.
  handle_vote(v, *encoded);
  network_.broadcast(v.node, "vote", encoded);
}

void ValidatorCommittee::handle_vote(Validator& v, const Bytes& payload) {
  auto vote = VoteMsg::decode(payload);
  if (!vote.ok()) return;
  const VoteMsg& m = vote.value();
  // The voter must belong to the committee and the signature must verify.
  bool known = false;
  for (const auto& pub : v.replica.chain().config().validators) {
    if (pub == m.voter) {
      known = true;
      break;
    }
  }
  if (!known) return;
  if (!crypto::verify(m.voter, vote_signing_bytes(m.height, m.block_hash), m.sig)) {
    return;
  }
  v.votes[{m.height, m.block_hash}].insert(m.voter.y);
  try_commit(v);
}

void ValidatorCommittee::try_commit(Validator& v) {
  if (!v.pending.has_value()) return;
  const auto it = v.votes.find({v.pending->header.height, v.pending->header.hash()});
  if (it == v.votes.end() || it->second.size() < quorum()) return;
  const Block block = std::move(*v.pending);
  v.pending.reset();
  commit(v, block);
}

void ValidatorCommittee::commit(Validator& v, const Block& block) {
  (void)v.replica.commit(block);
  const std::int64_t tip = v.replica.chain().height();
  if (v.pending.has_value() && v.pending->header.height < tip) v.pending.reset();
  std::erase_if(v.votes,
                [&](const auto& entry) { return entry.first.first < tip; });
}

bool ValidatorCommittee::replicas_consistent() const {
  for (std::size_t i = 1; i < validators_.size(); ++i) {
    if (chain(i).height() != chain(0).height()) return false;
    if (chain(i).tip_hash() != chain(0).tip_hash()) return false;
  }
  return true;
}

}  // namespace mv::ledger
