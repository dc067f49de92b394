#include "ledger/client_api.h"

#include <string>
#include <utility>

namespace mv::ledger {

namespace {

/// The ok envelope around a `payload_size`-byte payload that `fill` writes
/// in place.
template <typename Fill>
Bytes encode_ok(std::size_t payload_size, Fill&& fill) {
  ByteWriter w;
  w.reserve(4 + 1 + 4 + payload_size);
  w.u32(kClientApiVersion);
  w.u8(1);
  w.prefixed(fill);
  return w.take();
}

Bytes encode_err(const Error& e) {
  ByteWriter w;
  w.u32(kClientApiVersion);
  w.u8(0);
  w.str(e.code);
  w.str(e.message);
  return w.take();
}

}  // namespace

Error ClientApi::to_api_error(Error e) {
  if (e.code == errc::kChainBadHeight) {
    e.code = errc::kApiBadHeight;
  } else if (e.code == errc::kChainStaleHeight) {
    e.code = errc::kApiStaleHeight;
  } else if (e.code == errc::kChainOverloaded) {
    e.code = errc::kApiOverloaded;
  }
  return e;
}

Result<BlockHeader> ClientApi::header(std::int64_t height) const {
  if (height < 0 || height >= chain_.height()) {
    return make_error(errc::kApiBadHeight, "no such block");
  }
  const Block* block = chain_.block_at(height);
  if (block == nullptr) {
    return make_error(errc::kApiPrunedHeight,
                      "header below the snapshot base is not held");
  }
  return block->header;
}

Result<AccountProof> ClientApi::account_proof(crypto::Address address,
                                              std::int64_t height) const {
  auto proof = chain_.prove_account(address, height);
  if (!proof.ok()) return to_api_error(proof.error());
  return proof;
}

Result<Snapshot> ClientApi::snapshot_at(std::int64_t height) const {
  auto snapshot = chain_.export_snapshot(height);
  if (!snapshot.ok()) return to_api_error(snapshot.error());
  return snapshot;
}

Result<net::SubscriptionStats> ClientApi::subscription_stats() const {
  if (subscriptions_ == nullptr) {
    return make_error(errc::kApiNoSubscriptionService,
                      "node runs no subscription service");
  }
  return subscriptions_->stats();
}

Status ClientApi::drop_subscriber(NodeId node) {
  if (subscriptions_ == nullptr) {
    return Status::fail(errc::kApiNoSubscriptionService,
                        "node runs no subscription service");
  }
  if (Status s = subscriptions_->drop(node); !s.ok()) {
    return Status::fail(errc::kApiUnknownSubscription, s.error().message);
  }
  return {};
}

Bytes ClientApi::dispatch(const Bytes& request) const {
  // Every malformed request, truncated or trailing, is api.bad_request.
  ByteReader r(request, errc::kApiBadRequest);
  const std::uint32_t version = r.read_u32();
  const std::uint8_t kind = r.read_u8();
  if (!r.ok()) return encode_err(r.error());
  if (version != kClientApiVersion) {
    return encode_err(Error{errc::kApiBadVersion,
                            "client speaks version " + std::to_string(version) +
                                ", node speaks " +
                                std::to_string(kClientApiVersion)});
  }
  switch (static_cast<ClientRequest>(kind)) {
    case ClientRequest::kTip: {
      if (Status s = r.finish(errc::kApiBadRequest); !s.ok()) return encode_err(s.error());
      return encode_ok(8, [&](ByteWriter& w) { w.i64(tip_height()); });
    }
    case ClientRequest::kHeader: {
      const std::int64_t height = r.read_i64();
      if (Status s = r.finish(errc::kApiBadRequest); !s.ok()) return encode_err(s.error());
      auto h = header(height);
      if (!h.ok()) return encode_err(h.error());
      const Bytes header_bytes = h.value().encode();
      return encode_ok(header_bytes.size(),
                       [&](ByteWriter& w) { w.raw(header_bytes); });
    }
    case ClientRequest::kAccountProof: {
      const crypto::Address address{r.read_u64()};
      const std::int64_t height = r.read_i64();
      if (Status s = r.finish(errc::kApiBadRequest); !s.ok()) return encode_err(s.error());
      auto proof = account_proof(address, height);
      if (!proof.ok()) return encode_err(proof.error());
      const AccountProof& ap = proof.value();
      return encode_ok(ap.encoded_size(), [&](ByteWriter& w) { ap.write(w); });
    }
  }
  return encode_err(Error{errc::kApiBadRequest,
                          "unknown request kind " + std::to_string(kind)});
}

}  // namespace mv::ledger
