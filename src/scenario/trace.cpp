#include "scenario/trace.h"

#include <algorithm>
#include <fstream>

namespace mv::scenario {

namespace {

/// Smallest possible encodings, used to bound forged counts before any
/// allocation: a round is at least its tx_count field plus a commitment root;
/// a transaction at least its length prefix.
constexpr std::size_t kMinRoundBytes = 4 + 32;
constexpr std::size_t kMinTxBytes = 4;

crypto::Digest body_checksum(std::span<const std::uint8_t> body) {
  crypto::Sha256 h;
  h.update(std::string_view(kTraceDomain));
  h.update(body);
  return h.finalize();
}

}  // namespace

std::size_t Trace::total_txs() const {
  std::size_t n = 0;
  for (const auto& round : rounds) n += round.txs.size();
  return n;
}

Bytes Trace::encode() const {
  ByteWriter w;
  w.u32(kTraceVersion);
  w.str(header.scenario);
  w.u64(header.seed);
  w.u64(header.avatars);
  w.u32(header.validators);
  w.u64(header.genesis_grant);
  w.u32(header.max_txs_per_block);
  w.raw(header.genesis_root);
  w.u32(static_cast<std::uint32_t>(rounds.size()));
  for (const auto& round : rounds) {
    w.u32(static_cast<std::uint32_t>(round.txs.size()));
    for (const auto& tx : round.txs) w.bytes(tx.encode());
    w.raw(round.commitment_root);
  }
  const crypto::Digest checksum = body_checksum(w.data());
  w.raw(checksum);
  return w.take();
}

Result<Trace> Trace::decode(std::span<const std::uint8_t> bytes) {
  // The checksum covers everything before it, so it is verified first: any
  // mutated byte — header, tx payload, recorded root, or the checksum itself
  // — fails here before a single field is interpreted.
  if (bytes.size() < 32 + 4) {
    return make_error(errc::kTraceTruncated,
                      "trace shorter than checksum + version");
  }
  const std::span<const std::uint8_t> body(bytes.data(), bytes.size() - 32);
  const crypto::Digest want = body_checksum(body);
  if (!std::equal(want.begin(), want.end(), bytes.end() - 32)) {
    return make_error(errc::kTraceBadChecksum, "integrity digest mismatch");
  }

  ByteReader r(body);
  auto version = r.u32();
  if (!version.ok()) return make_error(errc::kTraceTruncated, "version");
  if (version.value() != kTraceVersion) {
    return make_error(errc::kTraceBadVersion,
                      "trace version " + std::to_string(version.value()));
  }
  Trace trace;
  auto scenario = r.str();
  auto seed = r.u64();
  auto avatars = r.u64();
  auto validators = r.u32();
  auto grant = r.u64();
  auto max_txs = r.u32();
  if (!scenario.ok() || !seed.ok() || !avatars.ok() || !validators.ok() ||
      !grant.ok() || !max_txs.ok()) {
    return make_error(errc::kTraceTruncated, "header");
  }
  trace.header.scenario = scenario.value();
  trace.header.seed = seed.value();
  trace.header.avatars = avatars.value();
  trace.header.validators = validators.value();
  trace.header.genesis_grant = grant.value();
  trace.header.max_txs_per_block = max_txs.value();
  if (!r.fixed(trace.header.genesis_root).ok()) {
    return make_error(errc::kTraceTruncated, "digest");
  }
  if (trace.header.validators == 0 || trace.header.max_txs_per_block == 0) {
    return make_error(errc::kTraceBadCount, "empty validator set or block cap");
  }

  auto round_count = r.u32();
  if (!round_count.ok()) return make_error(errc::kTraceTruncated, "rounds");
  if (static_cast<std::uint64_t>(round_count.value()) * kMinRoundBytes >
      r.remaining()) {
    return make_error(errc::kTraceBadCount, "round count exceeds stream");
  }
  trace.rounds.reserve(round_count.value());
  for (std::uint32_t i = 0; i < round_count.value(); ++i) {
    TraceRound round;
    auto tx_count = r.u32();
    if (!tx_count.ok()) return make_error(errc::kTraceTruncated, "tx count");
    if (static_cast<std::uint64_t>(tx_count.value()) * kMinTxBytes >
        r.remaining()) {
      return make_error(errc::kTraceBadCount, "tx count exceeds stream");
    }
    round.txs.reserve(tx_count.value());
    for (std::uint32_t t = 0; t < tx_count.value(); ++t) {
      auto raw = r.view();
      if (!raw.ok()) return make_error(errc::kTraceTruncated, "tx bytes");
      auto tx = ledger::Transaction::decode(raw.value());
      if (!tx.ok()) {
        return make_error(errc::kTraceBadTx, tx.error().to_string());
      }
      round.txs.push_back(std::move(tx).value());
    }
    if (!r.fixed(round.commitment_root).ok()) {
      return make_error(errc::kTraceTruncated, "digest");
    }
    trace.rounds.push_back(std::move(round));
  }
  if (!r.exhausted()) {
    return make_error(errc::kTraceBadCount, "trailing bytes before checksum");
  }
  return trace;
}

Result<Trace> load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return make_error(errc::kTraceTruncated, "cannot open " + path);
  Bytes bytes((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  return Trace::decode(bytes);
}

Status save_trace(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::fail(errc::kTraceTruncated, "cannot open " + path);
  const Bytes bytes = trace.encode();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::fail(errc::kTraceTruncated, "write failed: " + path);
  return {};
}

}  // namespace mv::scenario
