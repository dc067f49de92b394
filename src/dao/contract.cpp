#include "dao/contract.h"

#include <limits>

namespace mv::dao {

namespace {

std::string member_key(crypto::Address a) {
  return "member/" + std::to_string(a.value);
}
std::string meta_key(std::uint64_t id) {
  return "prop/" + std::to_string(id) + "/meta";
}
std::string vote_key(std::uint64_t id, crypto::Address a) {
  return "prop/" + std::to_string(id) + "/vote/" + std::to_string(a.value);
}

struct Meta {
  std::string title;
  std::uint64_t author = 0;
  std::int64_t created_height = 0;
  std::uint8_t status = 0;
  OnChainTally tally;

  /// The tally is appended from the first vote on, so a proposal nobody has
  /// voted on encodes as its four leading fields alone.
  [[nodiscard]] Bytes encode() const {
    ByteWriter w;
    w.str(title);
    w.u64(author);
    w.i64(created_height);
    w.u8(status);
    if (tally.voters != 0) {
      w.u64(tally.yes);
      w.u64(tally.no);
      w.u64(tally.abstain);
      w.u64(tally.voters);
    }
    return w.take();
  }

  /// Lenient on purpose, no finish(): the tally is an optional suffix.
  [[nodiscard]] static Result<Meta> decode(std::span<const std::uint8_t> bytes) {
    ByteReader r(bytes);
    Meta m;
    m.title = r.read_str();
    m.author = r.read_u64();
    m.created_height = r.read_i64();
    m.status = r.read_u8();
    if (!r.exhausted()) {
      for (std::uint64_t* field :
           {&m.tally.yes, &m.tally.no, &m.tally.abstain, &m.tally.voters}) {
        *field = r.read_u64();
      }
    }
    if (!r.ok()) return r.error();
    return m;
  }
};

/// The proposal record stored at `bytes` (null when there is none).
Result<Meta> read_meta(const Bytes* bytes) {
  if (bytes == nullptr) return make_error(errc::kDaoNoSuchProposal, "unknown proposal");
  auto meta = Meta::decode(*bytes);
  if (!meta.ok()) return make_error(errc::kDaoCorruptMeta, "meta undecodable");
  return meta;
}

}  // namespace

Result<OnChainBallot> OnChainBallot::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes, errc::kDaoCorruptMeta);
  OnChainBallot ballot;
  ballot.choice = r.read_u8();
  if (ballot.choice > 2) r.fail(errc::kDaoCorruptMeta, "ballot choice not in {0,1,2}");
  if (!r.ok()) return r.error();
  // Lenient on purpose, no finish(): a ballot without its weight reads 1.
  if (const std::uint64_t weight = r.read_u64(); r.ok()) ballot.weight = weight;
  return ballot;
}

Status DaoContract::call(ledger::CallContext& ctx, const std::string& method,
                         const Bytes& args) const {
  if (method == "join") return do_join(ctx);
  if (method == "propose") return do_propose(ctx, args);
  if (method == "vote") return do_vote(ctx, args);
  if (method == "finalize") return do_finalize(ctx, args);
  return Status::fail(errc::kDaoUnknownMethod, method);
}

Status DaoContract::do_join(ledger::CallContext& ctx) const {
  const std::string key = member_key(ctx.caller());
  if (ctx.get(key) != nullptr) {
    return Status::fail(errc::kDaoAlreadyMember, "caller already joined");
  }
  ctx.put(key, ledger::store_encode<std::uint64_t>(1));
  ctx.bump("member_count", 1);
  return {};
}

Status DaoContract::do_propose(ledger::CallContext& ctx, const Bytes& args) const {
  if (ctx.get(member_key(ctx.caller())) == nullptr) {
    return Status::fail(errc::kDaoNotAMember, "join first");
  }
  // propose(title: str)
  ByteReader r(args, errc::kDaoBadArgs);
  std::string title = r.read_str();
  if (Status s = r.finish(errc::kDaoBadArgs); !s.ok()) return s;

  const std::uint64_t id = ctx.bump("next_id", 1);

  Meta meta;
  meta.title = std::move(title);
  meta.author = ctx.caller().value;
  meta.created_height = ctx.height();
  meta.status = static_cast<std::uint8_t>(OnChainStatus::kVoting);
  ctx.put(meta_key(id), meta.encode());
  return {};
}

Status DaoContract::do_vote(ledger::CallContext& ctx, const Bytes& args) const {
  if (ctx.get(member_key(ctx.caller())) == nullptr) {
    return Status::fail(errc::kDaoNotAMember, "join first");
  }
  // vote(id: u64, choice: 0|1|2)
  ByteReader r(args, errc::kDaoBadArgs);
  const std::uint64_t id = r.read_u64();
  const std::uint8_t choice = r.read_u8();
  if (choice > 2) r.fail(errc::kDaoBadArgs, "choice not in {0,1,2}");
  if (Status s = r.finish(errc::kDaoBadArgs); !s.ok()) return s;
  auto loaded = read_meta(ctx.get(meta_key(id)));
  if (!loaded.ok()) return loaded.error();
  Meta meta = std::move(loaded).value();
  if (meta.status != static_cast<std::uint8_t>(OnChainStatus::kVoting)) {
    return Status::fail(errc::kDaoVotingClosed, "proposal finalized");
  }
  if (ctx.height() >= meta.created_height + config_.voting_period_blocks) {
    return Status::fail(errc::kDaoVotingClosed, "voting period elapsed");
  }
  const std::string key = vote_key(id, ctx.caller());
  if (ctx.get(key) != nullptr) {
    return Status::fail(errc::kDaoDoubleVote, "ballot already cast");
  }
  // Weight is the caller's balance at vote time under token weighting, 1
  // otherwise. The ballot record backs the double-vote check; finalize reads
  // the tally in the proposal record.
  const std::uint64_t weight =
      config_.token_weighted ? std::max<std::uint64_t>(1, ctx.balance(ctx.caller()))
                             : 1;
  ByteWriter w;
  w.u8(choice);
  w.u64(weight);
  ctx.put(key, w.take());
  // Weights saturate: under token weighting the same coins can vote again
  // after a transfer, and a sum past 2^64 must not wrap.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  OnChainTally& t = meta.tally;
  std::uint64_t& sum = choice == 0 ? t.yes : choice == 1 ? t.no : t.abstain;
  sum = sum > kMax - weight ? kMax : sum + weight;
  ++t.voters;
  ctx.put(meta_key(id), meta.encode());
  return {};
}

Status DaoContract::do_finalize(ledger::CallContext& ctx, const Bytes& args) const {
  // finalize(id: u64)
  ByteReader r(args, errc::kDaoBadArgs);
  const std::uint64_t id = r.read_u64();
  if (Status s = r.finish(errc::kDaoBadArgs); !s.ok()) return s;
  auto loaded = read_meta(ctx.get(meta_key(id)));
  if (!loaded.ok()) return loaded.error();
  Meta meta = std::move(loaded).value();
  if (meta.status != static_cast<std::uint8_t>(OnChainStatus::kVoting)) {
    return Status::fail(errc::kDaoAlreadyFinalized, "proposal closed");
  }
  if (ctx.height() < meta.created_height + config_.voting_period_blocks) {
    return Status::fail(errc::kDaoVotingOpen, "voting period not over");
  }

  // Turnout: head-count fraction of members (weight-independent, so whales
  // cannot manufacture quorum on their own under token weighting).
  const double members =
      static_cast<double>(std::max<std::uint64_t>(
          1, ledger::store_decode<std::uint64_t>(ctx.get("member_count"))));
  const double turnout = static_cast<double>(meta.tally.voters) / members;
  const double yes = static_cast<double>(meta.tally.yes);
  const double decisive = yes + static_cast<double>(meta.tally.no);
  const double yes_share = decisive > 0.0 ? yes / decisive : 0.0;

  meta.status = static_cast<std::uint8_t>(
      (turnout >= config_.quorum && yes_share > config_.pass_threshold)
          ? OnChainStatus::kPassed
          : OnChainStatus::kRejected);
  ctx.put(meta_key(id), meta.encode());
  return {};
}

std::uint64_t DaoContract::member_count(const ledger::LedgerState& state,
                                        const std::string& contract) {
  return ledger::store_decode<std::uint64_t>(state.store_get(contract, "member_count"));
}

std::uint64_t DaoContract::proposal_count(const ledger::LedgerState& state,
                                          const std::string& contract) {
  return ledger::store_decode<std::uint64_t>(state.store_get(contract, "next_id"));
}

Result<DaoContract::ProposalView> DaoContract::proposal(
    const ledger::LedgerState& state, const std::string& contract,
    std::uint64_t id) {
  auto meta = read_meta(state.store_get(contract, meta_key(id)));
  if (!meta.ok()) return meta.error();
  const Meta& m = meta.value();
  return ProposalView{m.tally, m.title, crypto::Address{m.author},
                      m.created_height, static_cast<OnChainStatus>(m.status)};
}

Bytes DaoContract::encode_propose(const std::string& title) {
  ByteWriter w;
  w.str(title);
  return w.take();
}

Bytes DaoContract::encode_vote(std::uint64_t id, std::uint8_t choice) {
  ByteWriter w;
  w.u64(id);
  w.u8(choice);
  return w.take();
}

Bytes DaoContract::encode_finalize(std::uint64_t id) {
  ByteWriter w;
  w.u64(id);
  return w.take();
}

}  // namespace mv::dao
