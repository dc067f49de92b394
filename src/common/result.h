// Result<T>: value-or-error for expected domain failures.
//
// Domain operations that can legitimately fail (an invalid transaction, a
// rejected vote, a policy violation) return Result<T> instead of throwing;
// exceptions are reserved for broken invariants.
#pragma once

#include <cassert>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace mv {

/// Shared error-code registry.
///
/// Error codes are wire-stable strings ("chain.stale_height") that clients
/// branch on; scattering them as raw literals across call sites invites
/// typo'd codes that no client matches. Every code a client is expected to
/// handle lives here as a named constant, and is_transient() classifies the
/// retryable ones so retry loops don't have to keep their own lists.
namespace errc {

// api.* — the ClientApi facade's uniform taxonomy (ledger/client_api.h).
// Per-subsystem codes below are mapped onto these at the API boundary.
inline constexpr const char* kApiBadVersion = "api.bad_version";
inline constexpr const char* kApiBadRequest = "api.bad_request";
inline constexpr const char* kApiBadHeight = "api.bad_height";
inline constexpr const char* kApiPrunedHeight = "api.pruned_height";
inline constexpr const char* kApiStaleHeight = "api.stale_height";
inline constexpr const char* kApiOverloaded = "api.overloaded";
inline constexpr const char* kApiUnknownSubscription = "api.unknown_subscription";
inline constexpr const char* kApiNoSubscriptionService =
    "api.no_subscription_service";

// chain.* — Blockchain query/install failures (ledger/chain.h).
inline constexpr const char* kChainBadHeight = "chain.bad_height";
inline constexpr const char* kChainStaleHeight = "chain.stale_height";
inline constexpr const char* kChainOverloaded = "chain.overloaded";
inline constexpr const char* kChainRetentionCorrupt = "chain.retention_corrupt";
inline constexpr const char* kChainNotFresh = "chain.not_fresh";
inline constexpr const char* kChainBadAnchor = "chain.bad_anchor";
inline constexpr const char* kChainBadBlockCount = "chain.bad_block_count";
inline constexpr const char* kChainTrailing = "chain.trailing_bytes";

// header.* — the one signed-header check every header consumer shares
// (ledger/header_check.h); light.* — light-client proof anchoring.
inline constexpr const char* kHeaderBadHeight = "header.bad_height";
inline constexpr const char* kHeaderBadParent = "header.bad_parent";
inline constexpr const char* kHeaderWrongProposer = "header.wrong_proposer";
inline constexpr const char* kHeaderBadSignature = "header.bad_signature";
inline constexpr const char* kHeaderNoValidators = "header.no_validators";
inline constexpr const char* kLightUnknownHeight = "light.unknown_height";

// sub.* — subscription streaming (net/subscription.h, ledger/subscription.h).
inline constexpr const char* kSubStaleFrom = "sub.stale_from";
inline constexpr const char* kSubBadVersion = "sub.bad_version";
inline constexpr const char* kSubNotSubscribed = "sub.not_subscribed";
inline constexpr const char* kSubBusy = "sub.busy";
inline constexpr const char* kSubBadPush = "sub.bad_push";
inline constexpr const char* kSubMalformed = "sub.malformed";

// snapshot.* — snapshot codec + transfer (ledger/snapshot.h,
// net/snapshot_transfer.h).
inline constexpr const char* kSnapshotBusy = "snapshot.busy";
inline constexpr const char* kSnapshotServerBusy = "snapshot.server_busy";
inline constexpr const char* kSnapshotTimeout = "snapshot.timeout";
inline constexpr const char* kSnapshotUnavailable = "snapshot.unavailable";
inline constexpr const char* kSnapshotBadManifest = "snapshot.bad_manifest";
inline constexpr const char* kSnapshotUnknownHeader = "snapshot.unknown_header";
inline constexpr const char* kSnapshotUntrustedManifest =
    "snapshot.untrusted_manifest";
inline constexpr const char* kSnapshotNoManifest = "snapshot.no_manifest";
inline constexpr const char* kSnapshotNoPeers = "snapshot.no_peers";
inline constexpr const char* kSnapshotBadMessage = "snapshot.bad_message";

// mempool.* — admission failures (ledger/mempool.h).
inline constexpr const char* kMempoolBadSignature = "mempool.bad_signature";
inline constexpr const char* kMempoolDuplicate = "mempool.duplicate";
inline constexpr const char* kMempoolStaleNonce = "mempool.stale_nonce";
inline constexpr const char* kMempoolUnderpriced = "mempool.underpriced";
inline constexpr const char* kMempoolFull = "mempool.full";

// tx.* — transaction application failures (ledger/state.h apply()). These
// reject one transaction, never the block; a client retries only after
// changing the transaction (new nonce, more funds), so none are transient.
inline constexpr const char* kTxBadSignature = "tx.bad_signature";
inline constexpr const char* kTxBadNonce = "tx.bad_nonce";
inline constexpr const char* kTxBadRecipient = "tx.bad_recipient";
inline constexpr const char* kTxUnknownContract = "tx.unknown_contract";
inline constexpr const char* kTxBadKind = "tx.bad_kind";
/// Raised by LedgerView::debit (transfers, fees, and contract escrow flows).
inline constexpr const char* kStateInsufficientFunds = "state.insufficient_funds";

// nft.* — NFT contract rejections (nft/contract.h). Scenario replay
// classifies these as permanent per-transaction outcomes.
inline constexpr const char* kNftUnknownMethod = "nft.unknown_method";
inline constexpr const char* kNftBadArgs = "nft.bad_args";
inline constexpr const char* kNftRoyaltyTooHigh = "nft.royalty_too_high";
inline constexpr const char* kNftNoSuchToken = "nft.no_such_token";
inline constexpr const char* kNftNotOwner = "nft.not_owner";
inline constexpr const char* kNftListed = "nft.listed";
inline constexpr const char* kNftNotListed = "nft.not_listed";
inline constexpr const char* kNftSelfPurchase = "nft.self_purchase";

// dao.* — DAO contract rejections (dao/contract.h).
inline constexpr const char* kDaoUnknownMethod = "dao.unknown_method";
inline constexpr const char* kDaoBadArgs = "dao.bad_args";
inline constexpr const char* kDaoAlreadyMember = "dao.already_member";
inline constexpr const char* kDaoNotAMember = "dao.not_a_member";
inline constexpr const char* kDaoNoSuchProposal = "dao.no_such_proposal";
inline constexpr const char* kDaoCorruptMeta = "dao.corrupt_meta";
inline constexpr const char* kDaoVotingClosed = "dao.voting_closed";
inline constexpr const char* kDaoVotingOpen = "dao.voting_open";
inline constexpr const char* kDaoDoubleVote = "dao.double_vote";
inline constexpr const char* kDaoAlreadyFinalized = "dao.already_finalized";

// rep.* — on-chain reputation contract (reputation/contract.h).
inline constexpr const char* kRepUnknownMethod = "rep.unknown_method";
inline constexpr const char* kRepBadArgs = "rep.bad_args";
inline constexpr const char* kRepSelfRating = "rep.self_rating";
inline constexpr const char* kRepDeltaTooLarge = "rep.delta_too_large";
inline constexpr const char* kRepCooldown = "rep.cooldown";

// mod.* — on-chain moderation report registry (moderation/contract.h).
inline constexpr const char* kModUnknownMethod = "mod.unknown_method";
inline constexpr const char* kModBadArgs = "mod.bad_args";
inline constexpr const char* kModSelfReport = "mod.self_report";
inline constexpr const char* kModNoSuchReport = "mod.no_such_report";
inline constexpr const char* kModAlreadyResolved = "mod.already_resolved";
inline constexpr const char* kModNotModerator = "mod.not_moderator";

// beacon.* — beacon header codec + sharded-ledger rounds (ledger/beacon.h,
// ledger/shard.h).
inline constexpr const char* kBeaconBadCount = "beacon.bad_count";
inline constexpr const char* kBeaconBadRoot = "beacon.bad_root";
inline constexpr const char* kBeaconTrailing = "beacon.trailing_bytes";
inline constexpr const char* kShardBadConfig = "shard.bad_config";
inline constexpr const char* kShardUnknownReceipt = "shard.unknown_receipt";
inline constexpr const char* kShardRoundFailed = "shard.round_failed";

// xshard.* — cross-shard lock-and-mint contract rejections (ledger/shard.h).
inline constexpr const char* kXShardBadArgs = "xshard.bad_args";
inline constexpr const char* kXShardUnknownMethod = "xshard.unknown_method";
inline constexpr const char* kXShardBadDest = "xshard.bad_dest";
inline constexpr const char* kXShardWrongShard = "xshard.wrong_shard";
inline constexpr const char* kXShardUnknownBeacon = "xshard.unknown_beacon";
inline constexpr const char* kXShardBadProof = "xshard.bad_proof";
inline constexpr const char* kXShardReceiptSpent = "xshard.receipt_spent";

// trace.* — scenario trace codec + replay (scenario/trace.h,
// scenario/harness.h).
inline constexpr const char* kTraceBadMagic = "trace.bad_magic";
inline constexpr const char* kTraceBadVersion = "trace.bad_version";
inline constexpr const char* kTraceTruncated = "trace.truncated";
inline constexpr const char* kTraceBadCount = "trace.bad_count";
inline constexpr const char* kTraceBadChecksum = "trace.bad_checksum";
inline constexpr const char* kTraceBadTx = "trace.bad_tx";
inline constexpr const char* kTraceGenesisMismatch = "trace.genesis_mismatch";
inline constexpr const char* kTraceReplayDiverged = "trace.replay_diverged";

/// True when a retry of the same request may succeed without the caller
/// changing anything (load shedding, transient contention, lost responses).
/// Permanent answers — bad heights, pruned history, malformed payloads —
/// are not transient: retrying them is wasted traffic.
[[nodiscard]] inline bool is_transient(std::string_view code) {
  return code == kApiOverloaded || code == kChainOverloaded ||
         code == kSubBusy || code == kSnapshotBusy ||
         code == kSnapshotServerBusy || code == kSnapshotTimeout ||
         code == kMempoolFull;
}

}  // namespace errc

/// Error payload: machine-readable code plus human-readable detail.
struct Error {
  std::string code;     ///< stable, e.g. "tx.bad_signature"
  std::string message;  ///< free-form context

  [[nodiscard]] std::string to_string() const { return code + ": " + message; }
};

template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Error error) : error_(std::move(error)) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] const T& value() const& {
    if (!ok()) throw std::logic_error("Result::value on error: " + error_->to_string());
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    if (!ok()) throw std::logic_error("Result::value on error: " + error_->to_string());
    return std::move(*value_);
  }
  [[nodiscard]] const T& value_or(const T& fallback) const& {
    return ok() ? *value_ : fallback;
  }

  [[nodiscard]] const Error& error() const {
    assert(!ok());
    return *error_;
  }

 private:
  std::optional<T> value_;
  std::optional<Error> error_;
};

/// Result<void> analogue.
class [[nodiscard]] Status {
 public:
  Status() = default;                                     // ok
  Status(Error error) : error_(std::move(error)) {}       // NOLINT(google-explicit-constructor)

  [[nodiscard]] static Status ok_status() { return Status{}; }
  [[nodiscard]] static Status fail(std::string code, std::string message) {
    return Status(Error{std::move(code), std::move(message)});
  }

  [[nodiscard]] bool ok() const { return !error_.has_value(); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] const Error& error() const {
    assert(!ok());
    return *error_;
  }

 private:
  std::optional<Error> error_;
};

inline Error make_error(std::string code, std::string message) {
  return Error{std::move(code), std::move(message)};
}

}  // namespace mv
