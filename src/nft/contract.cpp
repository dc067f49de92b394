#include "nft/contract.h"

namespace mv::nft {

namespace {

std::string owner_key(std::uint64_t id) { return "token/" + std::to_string(id) + "/owner"; }
std::string creator_key(std::uint64_t id) { return "token/" + std::to_string(id) + "/creator"; }
std::string uri_key(std::uint64_t id) { return "token/" + std::to_string(id) + "/uri"; }
std::string royalty_key(std::uint64_t id) { return "token/" + std::to_string(id) + "/royalty"; }
std::string listing_key(std::uint64_t id) { return "listing/" + std::to_string(id); }

constexpr std::uint32_t kMaxRoyaltyBps = 5000;  // 50% cap

}  // namespace

Status NftContract::call(ledger::CallContext& ctx, const std::string& method,
                         const Bytes& args) const {
  if (method == "mint") return do_mint(ctx, args);
  if (method == "transfer") return do_transfer(ctx, args);
  if (method == "list") return do_list(ctx, args);
  if (method == "cancel") return do_cancel(ctx, args);
  if (method == "buy") return do_buy(ctx, args);
  return Status::fail(errc::kNftUnknownMethod, method);
}

Status NftContract::do_mint(ledger::CallContext& ctx, const Bytes& args) const {
  // mint(uri: str, royalty_bps: u32)
  ByteReader r(args, errc::kNftBadArgs);
  const std::string uri = r.read_str();
  const std::uint32_t royalty = r.read_u32();
  if (Status s = r.finish(errc::kNftBadArgs); !s.ok()) return s;
  if (royalty > kMaxRoyaltyBps) {
    return Status::fail(errc::kNftRoyaltyTooHigh, "royalty above 50%");
  }
  const std::uint64_t id = ctx.bump("next_token", 1);
  ctx.put(owner_key(id), ledger::store_encode(ctx.caller().value));
  ctx.put(creator_key(id), ledger::store_encode(ctx.caller().value));
  ByteWriter stored_uri;
  stored_uri.str(uri);
  ctx.put(uri_key(id), stored_uri.take());
  ctx.put(royalty_key(id), ledger::store_encode(royalty));
  return {};
}

Status NftContract::do_transfer(ledger::CallContext& ctx, const Bytes& args) const {
  // transfer(token: u64, to: address)
  ByteReader r(args, errc::kNftBadArgs);
  const std::uint64_t token = r.read_u64();
  const std::uint64_t to = r.read_u64();
  if (to == 0) r.fail(errc::kNftBadArgs, "null recipient");
  if (Status s = r.finish(errc::kNftBadArgs); !s.ok()) return s;
  const Bytes* owner = ctx.get(owner_key(token));
  if (owner == nullptr) return Status::fail(errc::kNftNoSuchToken, "unknown token");
  if (ledger::store_decode<std::uint64_t>(owner) != ctx.caller().value) {
    return Status::fail(errc::kNftNotOwner, "caller does not own the token");
  }
  if (ctx.get(listing_key(token)) != nullptr) {
    return Status::fail(errc::kNftListed, "cancel the listing before transferring");
  }
  ctx.put(owner_key(token), ledger::store_encode(to));
  return {};
}

Status NftContract::do_list(ledger::CallContext& ctx, const Bytes& args) const {
  // list(token: u64, price: u64 > 0)
  ByteReader r(args, errc::kNftBadArgs);
  const std::uint64_t token = r.read_u64();
  const std::uint64_t price = r.read_u64();
  if (price == 0) r.fail(errc::kNftBadArgs, "zero price");
  if (Status s = r.finish(errc::kNftBadArgs); !s.ok()) return s;
  const Bytes* owner = ctx.get(owner_key(token));
  if (owner == nullptr) return Status::fail(errc::kNftNoSuchToken, "unknown token");
  if (ledger::store_decode<std::uint64_t>(owner) != ctx.caller().value) {
    return Status::fail(errc::kNftNotOwner, "caller does not own the token");
  }
  ctx.put(listing_key(token), ledger::store_encode(price));
  return {};
}

Status NftContract::do_cancel(ledger::CallContext& ctx, const Bytes& args) const {
  // cancel(token: u64)
  ByteReader r(args, errc::kNftBadArgs);
  const std::uint64_t token = r.read_u64();
  if (Status s = r.finish(errc::kNftBadArgs); !s.ok()) return s;
  const Bytes* owner = ctx.get(owner_key(token));
  if (owner == nullptr) return Status::fail(errc::kNftNoSuchToken, "unknown token");
  if (ledger::store_decode<std::uint64_t>(owner) != ctx.caller().value) {
    return Status::fail(errc::kNftNotOwner, "caller does not own the token");
  }
  if (ctx.get(listing_key(token)) == nullptr) {
    return Status::fail(errc::kNftNotListed, "no open listing");
  }
  ctx.erase(listing_key(token));
  return {};
}

Status NftContract::do_buy(ledger::CallContext& ctx, const Bytes& args) const {
  // buy(token: u64)
  ByteReader r(args, errc::kNftBadArgs);
  const std::uint64_t token = r.read_u64();
  if (Status s = r.finish(errc::kNftBadArgs); !s.ok()) return s;
  const Bytes* listing = ctx.get(listing_key(token));
  if (listing == nullptr) return Status::fail(errc::kNftNotListed, "no open listing");
  const std::uint64_t price = ledger::store_decode<std::uint64_t>(listing);
  const crypto::Address seller{
      ledger::store_decode<std::uint64_t>(ctx.get(owner_key(token)))};
  const crypto::Address creator{
      ledger::store_decode<std::uint64_t>(ctx.get(creator_key(token)))};
  if (seller == ctx.caller()) {
    return Status::fail(errc::kNftSelfPurchase, "cannot buy your own listing");
  }
  const std::uint32_t royalty_bps =
      ledger::store_decode<std::uint32_t>(ctx.get(royalty_key(token)));
  const std::uint64_t royalty =
      price * royalty_bps / 10000;  // creator share of every sale
  const std::uint64_t seller_cut = price - royalty;
  if (auto s = ctx.transfer(ctx.caller(), seller, seller_cut); !s.ok()) return s;
  if (royalty > 0) {
    if (auto s = ctx.transfer(ctx.caller(), creator, royalty); !s.ok()) return s;
  }
  ctx.put(owner_key(token), ledger::store_encode(ctx.caller().value));
  ctx.erase(listing_key(token));
  return {};
}

std::uint64_t NftContract::token_count(const ledger::LedgerState& state) {
  return ledger::store_decode<std::uint64_t>(state.store_get("nft", "next_token"));
}

Result<NftContract::TokenView> NftContract::token(
    const ledger::LedgerState& state, std::uint64_t id) {
  const Bytes* owner = state.store_get("nft", owner_key(id));
  if (owner == nullptr) return make_error(errc::kNftNoSuchToken, "unknown token");
  TokenView view;
  view.owner = crypto::Address{ledger::store_decode<std::uint64_t>(owner)};
  view.creator = crypto::Address{
      ledger::store_decode<std::uint64_t>(state.store_get("nft", creator_key(id)))};
  // Lenient on purpose: a missing or undecodable uri reads as empty.
  if (const Bytes* uri = state.store_get("nft", uri_key(id)); uri != nullptr) {
    ByteReader r(*uri);
    view.uri = r.read_str();
  }
  view.royalty_bps =
      ledger::store_decode<std::uint32_t>(state.store_get("nft", royalty_key(id)));
  return view;
}

std::uint64_t NftContract::listing_price(const ledger::LedgerState& state,
                                         std::uint64_t id) {
  return ledger::store_decode<std::uint64_t>(state.store_get("nft", listing_key(id)));
}

std::vector<std::uint64_t> NftContract::tokens_of(
    const ledger::LedgerState& state, crypto::Address owner) {
  std::vector<std::uint64_t> out;
  const std::uint64_t n = token_count(state);
  for (std::uint64_t id = 0; id < n; ++id) {
    auto view = token(state, id);
    if (view.ok() && view.value().owner == owner) out.push_back(id);
  }
  return out;
}

Bytes NftContract::encode_mint(const std::string& uri, std::uint32_t royalty_bps) {
  ByteWriter w;
  w.str(uri);
  w.u32(royalty_bps);
  return w.take();
}

Bytes NftContract::encode_transfer(std::uint64_t token, crypto::Address to) {
  ByteWriter w;
  w.u64(token);
  w.u64(to.value);
  return w.take();
}

Bytes NftContract::encode_list(std::uint64_t token, std::uint64_t price) {
  ByteWriter w;
  w.u64(token);
  w.u64(price);
  return w.take();
}

Bytes NftContract::encode_token(std::uint64_t token) {
  ByteWriter w;
  w.u64(token);
  return w.take();
}

}  // namespace mv::nft
