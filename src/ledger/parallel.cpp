#include "ledger/parallel.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mv::ledger {

namespace {

/// Signature checks per run_batch task: enough work per claim that a task
/// costs far more than claiming it, few enough that three lanes balance.
constexpr std::size_t kSigsPerTask = 16;

/// A signature's check run ahead of the serial loop, if it was.
enum class Verdict : std::uint8_t { kUnchecked, kValid, kInvalid };

/// Verify, as one kValidation batch on `queue`, the signatures of the txs
/// that `cache` lacks before the block is applied: the misses the serial
/// loop will meet, except any it causes itself by evicting an entry (it
/// checks those inline). The cache is only read, so hits, misses and LRU
/// order stay the serial loop's.
std::vector<Verdict> preverify(JobQueue& queue, const crypto::DigestLruSet& cache,
                               const std::vector<Transaction>& txs,
                               std::span<const crypto::Digest> digests) {
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (!cache.contains(digests[i])) misses.push_back(i);
  }
  std::vector<Verdict> verdicts(txs.size(), Verdict::kUnchecked);
  queue.run_batch(JobClass::kValidation,
                  (misses.size() + kSigsPerTask - 1) / kSigsPerTask,
                  [&](std::size_t task) {
                    const std::size_t end =
                        std::min(misses.size(), (task + 1) * kSigsPerTask);
                    for (std::size_t j = task * kSigsPerTask; j < end; ++j) {
                      const std::size_t i = misses[j];
                      verdicts[i] = txs[i].signature_valid() ? Verdict::kValid
                                                             : Verdict::kInvalid;
                    }
                  });
  return verdicts;
}

/// Whether `tx`'s signature is already known good: a cache hit, or a miss
/// that verifies (and is remembered). A miss takes its `verdict` when one
/// was computed ahead and verifies inline otherwise. An invalid signature
/// answers false; apply() then re-verifies and produces the authoritative
/// error.
bool signature_vouched(crypto::DigestLruSet& cache, const Transaction& tx,
                       const crypto::Digest& digest, Verdict verdict,
                       BlockApplyOutcome& out) {
  if (cache.contains_and_touch(digest)) {
    ++out.sig_hits;
    return true;
  }
  ++out.sig_misses;
  const bool valid = verdict == Verdict::kUnchecked ? tx.signature_valid()
                                                    : verdict == Verdict::kValid;
  if (!valid) return false;
  cache.insert(digest);
  return true;
}

}  // namespace

BlockApplyOutcome apply_block(LedgerStateOverlay& scratch,
                              const std::vector<Transaction>& txs,
                              std::span<const crypto::Digest> digests,
                              const ContractRegistry& contracts, Tick height,
                              const ValidationConfig& config, ApplyMode mode,
                              std::size_t max_applied) {
  if (digests.size() != txs.size()) {
    throw std::invalid_argument("apply_block: one digest per transaction");
  }
  BlockApplyOutcome out;
  crypto::DigestLruSet* const cache = config.sig_cache.get();
  // A block check on a threaded queue verifies its cache misses in parallel
  // first. Assembly keeps checking inline: it stops at the block cap, so
  // checks past the cap would be wasted.
  std::vector<Verdict> verdicts;
  JobQueue* const queue = config.threaded_queue();
  if (cache != nullptr && queue != nullptr && mode == ApplyMode::kAllOrNothing) {
    verdicts = preverify(*queue, *cache, txs, digests);
  }
  for (std::size_t i = 0; i < txs.size() && out.applied.size() < max_applied;
       ++i) {
    const bool preverified =
        cache != nullptr &&
        signature_vouched(*cache, txs[i], digests[i],
                          verdicts.empty() ? Verdict::kUnchecked : verdicts[i],
                          out);
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
