#include "ledger/replica.h"

namespace mv::ledger {

namespace {

/// `config` with `cache` in place of whatever validation.sig_cache it carried.
ChainConfig with_sig_cache(ChainConfig config,
                           std::shared_ptr<crypto::DigestLruSet> cache) {
  config.validation.sig_cache = std::move(cache);
  return config;
}

}  // namespace

Replica::Replica(ChainConfig config,
                 std::shared_ptr<const ContractRegistry> contracts,
                 LedgerState genesis)
    : chain_(with_sig_cache(std::move(config),
                            std::make_shared<crypto::DigestLruSet>()),
             std::move(contracts), std::move(genesis)),
      pool_(MempoolConfig{.sig_cache = chain_.config().validation.sig_cache}) {}

Status Replica::submit(Transaction tx, Tick now) {
  return pool_.add(std::move(tx), chain_.state(), now);
}

Block Replica::propose(const crypto::Wallet& proposer, Tick timestamp, Rng& rng) {
  return chain_.assemble(
      proposer, pool_.select(chain_.config().max_txs_per_block, chain_.state()),
      timestamp, rng);
}

Status Replica::commit(const Block& block) {
  Status s = chain_.append(block);
  if (s.ok()) pool_.remove_included(block.txs);
  return s;
}

}  // namespace mv::ledger
