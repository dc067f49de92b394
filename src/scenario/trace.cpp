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

  // Every truncation is trace.truncated; a transaction that fails its own
  // decoder is trace.bad_tx.
  ByteReader r(body, errc::kTraceTruncated);
  if (const std::uint32_t version = r.read_u32(); version != kTraceVersion) {
    r.fail(errc::kTraceBadVersion, "trace version " + std::to_string(version));
  }
  Trace trace;
  trace.header.scenario = r.read_str();
  trace.header.seed = r.read_u64();
  trace.header.avatars = r.read_u64();
  trace.header.validators = r.read_u32();
  trace.header.genesis_grant = r.read_u64();
  trace.header.max_txs_per_block = r.read_u32();
  r.read_fixed(trace.header.genesis_root);
  if (trace.header.validators == 0 || trace.header.max_txs_per_block == 0) {
    r.fail(errc::kTraceBadCount, "empty validator set or block cap");
  }

  const std::uint32_t round_count = r.count(kMinRoundBytes, errc::kTraceBadCount);
  trace.rounds.reserve(round_count);
  for (std::uint32_t i = 0; i < round_count; ++i) {
    TraceRound round;
    const std::uint32_t tx_count = r.count(kMinTxBytes, errc::kTraceBadCount);
    round.txs.reserve(tx_count);
    for (std::uint32_t t = 0; t < tx_count; ++t) {
      auto tx = ledger::Transaction::decode(r.read_view());
      if (tx.ok()) {
        round.txs.push_back(std::move(tx).value());
      } else {
        r.fail(errc::kTraceBadTx, tx.error().to_string());
      }
    }
    r.read_fixed(round.commitment_root);
    trace.rounds.push_back(std::move(round));
  }
  return r.finish(std::move(trace), errc::kTraceBadCount);
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
