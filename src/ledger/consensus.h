// Simulated PoA/BFT consensus over the message network.
//
// A fixed validator committee takes turns proposing (round-robin). A round:
//   1. the leader assembles a block from its mempool and broadcasts PROPOSE;
//   2. every validator that finds the block valid broadcasts VOTE;
//   3. a validator that has the block and a quorum (> 2/3) of distinct valid
//      votes commits the block to its replica.
// Catch-up: a validator that sees a proposal ahead of its own height pulls
// the missing blocks from the proposer (SYNC_REQ/SYNC_RESP), so replicas
// that missed commits (partition, loss) converge once connectivity returns.
// Delivery order, jitter, loss, and partitions come from net::Network, so the
// same code exercises both happy-path throughput (bench E7) and fault cases
// (tests: partitioned committee cannot commit; healed laggards catch up).
#pragma once

#include <map>
#include <optional>
#include <set>

#include "ledger/replica.h"
#include "net/network.h"

namespace mv::ledger {

struct ConsensusStats {
  std::uint64_t rounds = 0;
  std::uint64_t committed_blocks = 0;
  std::uint64_t committed_txs = 0;
  std::uint64_t failed_rounds = 0;
  double total_commit_ticks = 0;  ///< summed leader-observed commit latency

  [[nodiscard]] double avg_commit_ticks() const {
    return committed_blocks ? total_commit_ticks / static_cast<double>(committed_blocks) : 0.0;
  }
};

class ValidatorCommittee {
 public:
  /// Creates `n` validators with fresh wallets, replicas of the same genesis,
  /// and nodes on `network`. `validation` configures block application on
  /// every replica (ledger/parallel.h): the queue that serves proof queries
  /// and spreads block checks. Its sig_cache is not read; every replica owns
  /// one (ledger/replica.h). Blocks apply serially either way.
  ValidatorCommittee(net::Network& network, std::size_t n,
                     std::shared_ptr<const ContractRegistry> contracts,
                     const LedgerState& genesis, std::size_t max_txs_per_block,
                     Rng& rng, ValidationConfig validation = {});

  /// Client entry point: deliver a transaction to every validator's mempool
  /// (models the RPC edge; gossip of txs is exercised separately).
  void submit(const Transaction& tx);

  /// Drive one consensus round to completion or timeout. Returns true when a
  /// quorum committed the leader's block on every connected replica.
  bool run_round(Tick timeout = 1000);

  [[nodiscard]] std::size_t size() const { return validators_.size(); }
  [[nodiscard]] const Blockchain& chain(std::size_t i) const {
    return validators_[i].replica.chain();
  }
  [[nodiscard]] const Mempool& mempool(std::size_t i) const {
    return validators_[i].replica.pool();
  }
  [[nodiscard]] const crypto::Wallet& wallet(std::size_t i) const { return validators_[i].wallet; }
  [[nodiscard]] NodeId node(std::size_t i) const { return validators_[i].node; }
  [[nodiscard]] const ConsensusStats& stats() const { return stats_; }

  /// Votes needed to commit: floor(2n/3) + 1.
  [[nodiscard]] std::size_t quorum() const { return validators_.size() * 2 / 3 + 1; }

  /// True when every validator's chain is at the same height with equal tips.
  [[nodiscard]] bool replicas_consistent() const;

 private:
  struct Validator {
    crypto::Wallet wallet;
    Replica replica;
    NodeId node;
    Rng rng;
    // Round-local: pending proposal and votes keyed by (height, full block
    // hash), so a vote counts only for the exact block it signs.
    std::optional<Block> pending;
    std::map<std::pair<std::int64_t, crypto::Digest>, std::set<std::uint64_t>> votes;
  };

  void on_message(std::size_t validator_index, const net::Message& msg);
  void handle_propose(Validator& v, const net::Message& msg);
  void handle_vote(Validator& v, const Bytes& payload);
  void handle_sync_request(Validator& v, const net::Message& msg);
  void handle_sync_response(Validator& v, const Bytes& payload);
  void serve_blocks(Validator& v, NodeId to, std::int64_t from_height);
  void try_commit(Validator& v);
  /// The one commit tail, for the quorum path and the sync path alike:
  /// Replica::commit, then drop a pending proposal the chain has passed and
  /// the vote sets below the tip.
  void commit(Validator& v, const Block& block);
  void broadcast_vote(Validator& v, const Block& block);

  net::Network& network_;
  std::vector<Validator> validators_;
  ConsensusStats stats_;
};

}  // namespace mv::ledger
