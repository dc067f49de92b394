// DaoContract: governance as a smart contract hosted on the ledger.
//
// "Decentralized autonomous organizations (DAOs) are based on Blockchain and
// smart contract technologies" (§III-B). This contract keeps membership,
// proposals, and ballots in on-chain contract storage, so governance actions
// are ordinary signed transactions: transparent, replicated, and auditable by
// every platform member. One member, one vote (the "flat, fully
// democratized" baseline).
//
// Methods (args are ByteWriter-encoded):
//   join()                         — register the caller as a member
//   propose(title: str)            — open a proposal; returns id via store
//   vote(id: u64, choice: u8)      — cast yes(0)/no(1)/abstain(2); the
//                                    ballot joins the proposal's tally
//   finalize(id: u64)              — close after the voting period elapsed
#pragma once

#include <span>
#include <string>

#include "ledger/state.h"

namespace mv::dao {

struct DaoContractConfig {
  std::string name = "dao";
  std::int64_t voting_period_blocks = 10;
  double quorum = 0.2;
  double pass_threshold = 0.5;
  /// Token-weighted mode: a ballot weighs the caller's on-chain balance at
  /// vote time (the plutocratic DAO the paper contrasts with flat 1m1v).
  /// Quorum stays a head count of members, so no weight can meet it alone.
  bool token_weighted = false;
};

enum class OnChainStatus : std::uint8_t { kVoting = 0, kPassed = 1, kRejected = 2 };

/// One stored ballot: choice yes(0)/no(1)/abstain(2) and its weight.
struct OnChainBallot {
  std::uint8_t choice = 0;
  std::uint64_t weight = 1;

  /// dao.corrupt_meta for a choice out of range; a missing weight reads as 1.
  [[nodiscard]] static Result<OnChainBallot> decode(
      std::span<const std::uint8_t> bytes);
};

/// A proposal's running totals, kept in its record and updated by every
/// vote (saturating, never wrapping).
struct OnChainTally {
  std::uint64_t yes = 0;
  std::uint64_t no = 0;
  std::uint64_t abstain = 0;
  std::uint64_t voters = 0;

  friend bool operator==(const OnChainTally&, const OnChainTally&) = default;
};

class DaoContract final : public ledger::Contract {
 public:
  explicit DaoContract(DaoContractConfig config) : config_(std::move(config)) {}

  [[nodiscard]] std::string name() const override { return config_.name; }
  [[nodiscard]] Status call(ledger::CallContext& ctx, const std::string& method,
                            const Bytes& args) const override;

  // ---- read-side helpers (inspect a committed state) ----
  [[nodiscard]] static std::uint64_t member_count(const ledger::LedgerState& state,
                                                  const std::string& contract);
  [[nodiscard]] static std::uint64_t proposal_count(const ledger::LedgerState& state,
                                                    const std::string& contract);
  struct ProposalView : OnChainTally {
    std::string title;
    crypto::Address author;
    std::int64_t created_height = 0;
    OnChainStatus status = OnChainStatus::kVoting;
  };
  [[nodiscard]] static Result<ProposalView> proposal(
      const ledger::LedgerState& state, const std::string& contract,
      std::uint64_t id);

  // ---- argument encoders for clients ----
  [[nodiscard]] static Bytes encode_propose(const std::string& title);
  [[nodiscard]] static Bytes encode_vote(std::uint64_t id, std::uint8_t choice);
  [[nodiscard]] static Bytes encode_finalize(std::uint64_t id);

 private:
  Status do_join(ledger::CallContext& ctx) const;
  Status do_propose(ledger::CallContext& ctx, const Bytes& args) const;
  Status do_vote(ledger::CallContext& ctx, const Bytes& args) const;
  Status do_finalize(ledger::CallContext& ctx, const Bytes& args) const;

  DaoContractConfig config_;
};

}  // namespace mv::dao
