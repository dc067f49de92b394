// On-chain audit registry for data-collection activities (§II-D).
//
// "A distributed ledger (Blockchain) can register any party's data collection
// and processing activities in the metaverse." AuditClient is the party-side
// helper that files records; AuditQuery is the regulator/user-side view that
// inspects the committed log, plus the data-monopoly check the paper calls
// for ("the metaverse should guarantee no data monopoly from any parties").
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ledger/chain.h"
#include "ledger/transaction.h"

namespace mv::ledger {

/// Party-side: builds signed audit-record transactions with correct nonces.
class AuditClient {
 public:
  AuditClient(const crypto::Wallet& wallet, Rng& rng)
      : wallet_(wallet), rng_(rng) {}

  /// Build the next audit-record transaction for this collector against the
  /// current chain state. The nonce is the high-water mark of the committed
  /// nonce and the locally issued counter, so records keep sequencing
  /// correctly whether or not earlier ones have been committed yet.
  [[nodiscard]] Transaction record(const LedgerState& state,
                                   AuditRecordBody body, std::uint64_t fee = 0);

  /// Drop locally issued-but-uncommitted sequencing (e.g. after the mempool
  /// was flushed); the next record resumes from the committed nonce.
  void reset_pending() { next_nonce_ = 0; }

 private:
  const crypto::Wallet& wallet_;
  Rng& rng_;
  std::uint64_t next_nonce_ = 0;  ///< local issue counter (high-water mark)
};

/// Aggregated view per collector.
struct CollectorProfile {
  crypto::Address collector;
  std::uint64_t records = 0;
  std::map<std::string, std::uint64_t> by_category;
  std::uint64_t without_pet = 0;  ///< records with pet_applied == "none"
};

/// Regulator/user-side queries over the committed audit log.
class AuditQuery {
 public:
  explicit AuditQuery(const Blockchain& chain) : chain_(chain) {}

  [[nodiscard]] std::vector<StoredAuditRecord> by_subject(std::uint64_t subject) const;
  [[nodiscard]] std::vector<StoredAuditRecord> by_collector(crypto::Address collector) const;
  [[nodiscard]] std::vector<CollectorProfile> collector_profiles() const;

  /// Herfindahl-Hirschman index over collectors' record shares in [0,1]; the
  /// paper's "no data monopoly" guarantee is checked as HHI below a threshold.
  [[nodiscard]] double data_concentration_hhi() const;

  /// True when one collector holds more than `threshold` of all records.
  [[nodiscard]] bool has_data_monopoly(double threshold = 0.5) const;

 private:
  const Blockchain& chain_;
};

}  // namespace mv::ledger
