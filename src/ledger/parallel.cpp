#include "ledger/parallel.h"

#include <utility>

namespace mv::ledger {

namespace {

/// Whether `tx`'s signature is already known good: a cache hit, or a miss
/// that verifies (and is remembered). An invalid signature answers false;
/// apply() then re-verifies and produces the authoritative error.
bool signature_vouched(crypto::DigestLruSet& cache, const Transaction& tx,
                       const crypto::Digest& digest, BlockApplyOutcome& out) {
  if (cache.contains_and_touch(digest)) {
    ++out.sig_hits;
    return true;
  }
  ++out.sig_misses;
  if (!tx.signature_valid()) return false;
  cache.insert(digest);
  return true;
}

}  // namespace

BlockApplyOutcome apply_block(LedgerStateOverlay& scratch,
                              const std::vector<Transaction>& txs,
                              const ContractRegistry& contracts, Tick height,
                              const ValidationConfig& config, ApplyMode mode,
                              std::size_t max_applied,
                              std::span<const crypto::Digest> digests) {
  BlockApplyOutcome out;
  crypto::DigestLruSet* const cache = config.sig_cache.get();
  for (std::size_t i = 0; i < txs.size() && out.applied.size() < max_applied;
       ++i) {
    const bool preverified =
        cache != nullptr &&
        signature_vouched(*cache, txs[i],
                          digests.empty() ? txs[i].digest() : digests[i], out);
    if (Status s = scratch.apply(txs[i], contracts, height, preverified); s.ok()) {
      out.applied.push_back(i);
    } else if (mode == ApplyMode::kAllOrNothing) {
      out.status = std::move(s);
      out.failed_index = i;
      return out;
    }
  }
  return out;
}

}  // namespace mv::ledger
