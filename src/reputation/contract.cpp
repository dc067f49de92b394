#include "reputation/contract.h"

#include <algorithm>

namespace mv::reputation {

namespace {

std::string score_key(std::uint64_t addr) {
  return "score/" + std::to_string(addr);
}
std::string last_key(std::uint64_t rater, std::uint64_t subject) {
  return "last/" + std::to_string(rater) + "/" + std::to_string(subject);
}

}  // namespace

Status ReputationContract::call(ledger::CallContext& ctx,
                                const std::string& method,
                                const Bytes& args) const {
  if (method == "rate") return do_rate(ctx, args);
  return Status::fail(errc::kRepUnknownMethod, method);
}

Status ReputationContract::do_rate(ledger::CallContext& ctx,
                                   const Bytes& args) const {
  // rate(subject: address, delta: i64)
  ByteReader r(args, errc::kRepBadArgs);
  const crypto::Address subject{r.read_u64()};
  const std::int64_t d = r.read_i64();
  if (!subject.valid() || d == 0) r.fail(errc::kRepBadArgs, "null subject or zero delta");
  if (Status s = r.finish(errc::kRepBadArgs); !s.ok()) return s;
  if (subject == ctx.caller()) {
    return Status::fail(errc::kRepSelfRating, "cannot rate yourself");
  }
  if (d > config_.max_abs_delta || d < -config_.max_abs_delta) {
    return Status::fail(errc::kRepDeltaTooLarge,
                        "|delta| above " + std::to_string(config_.max_abs_delta));
  }
  if (config_.cooldown_blocks > 0) {
    const std::string lk = last_key(ctx.caller().value, subject.value);
    if (const Bytes* last = ctx.get(lk); last != nullptr) {
      const std::int64_t since = ctx.height() - ledger::store_decode<std::int64_t>(last);
      if (since < config_.cooldown_blocks) {
        return Status::fail(errc::kRepCooldown,
                            "pair rated " + std::to_string(since) + " blocks ago");
      }
    }
    ctx.put(lk, ledger::store_encode(ctx.height()));
  }
  const std::string sk = score_key(subject.value);
  const std::int64_t updated =
      std::clamp(ledger::store_decode<std::int64_t>(ctx.get(sk)) + d,
                 config_.min_score, config_.max_score);
  ctx.put(sk, ledger::store_encode(updated));
  return {};
}

std::int64_t ReputationContract::score(const ledger::LedgerState& state,
                                       const std::string& contract,
                                       crypto::Address subject) {
  return ledger::store_decode<std::int64_t>(
      state.store_get(contract, score_key(subject.value)));
}

std::uint64_t ReputationContract::rated_count(const ledger::LedgerState& state,
                                              const std::string& contract) {
  const ledger::ContractStore* store = state.find_store(contract);
  if (store == nullptr) return 0;
  return static_cast<std::uint64_t>(std::ranges::count_if(
      *store, [](const auto& entry) { return entry.first.starts_with("score/"); }));
}

Bytes ReputationContract::encode_rate(crypto::Address subject,
                                      std::int64_t delta) {
  ByteWriter w;
  w.u64(subject.value);
  w.i64(delta);
  return w.take();
}

}  // namespace mv::reputation
