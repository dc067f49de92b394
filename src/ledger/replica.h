// A replica: one chain, its mempool, and the verified-signature cache the
// two share.
//
// Every driver that grows a chain from a pool — the BFT committee
// (ledger/consensus.h) and the sharded ledger (ledger/shard.h) — admits,
// proposes and commits through this type, so "select -> assemble" and
// "append -> remove_included" are written once. A block that reaches the
// chain through commit() always leaves the pool by the slots it consumed
// (ledger/mempool.h), whichever driver and whichever path delivered it.
#pragma once

#include <memory>

#include "ledger/chain.h"
#include "ledger/mempool.h"

namespace mv::ledger {

class Replica {
 public:
  /// Builds the chain over `genesis` and an empty pool. The replica creates
  /// one DigestLruSet and hands it to both, so a signature verified at
  /// admission is vouched for at assembly and commit; the
  /// config.validation.sig_cache passed in is not read.
  Replica(ChainConfig config, std::shared_ptr<const ContractRegistry> contracts,
          LedgerState genesis);

  [[nodiscard]] const Blockchain& chain() const { return chain_; }
  /// Mutable chain, for hanging a commit hook. Blocks appended through it
  /// bypass commit() and leave their transactions pending.
  [[nodiscard]] Blockchain& chain() { return chain_; }
  [[nodiscard]] const Mempool& pool() const { return pool_; }
  /// Mutable pool, for expiry sweeps.
  [[nodiscard]] Mempool& pool() { return pool_; }

  /// Admit `tx` against the chain's committed state (Mempool::add).
  [[nodiscard]] Status submit(Transaction tx, Tick now);

  /// Select up to config.max_txs_per_block pending transactions and
  /// assemble a block signed by `proposer` on top of the tip. The pool is
  /// unchanged until the block commits.
  [[nodiscard]] Block propose(const crypto::Wallet& proposer, Tick timestamp,
                              Rng& rng);

  /// Append `block`; on success remove the slots it consumed from the pool.
  /// On failure chain and pool are unchanged.
  [[nodiscard]] Status commit(const Block& block);

 private:
  Blockchain chain_;
  Mempool pool_;
};

}  // namespace mv::ledger
