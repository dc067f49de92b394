#include "net/snapshot_transfer.h"

#include <algorithm>

namespace mv::net {

namespace {

// Responses echo the request's height (and chunk index) so a client can
// discard replies from an abandoned or restarted sync. Malformed messages
// are silently ignored: the transport retries, and the payloads that matter
// are authenticated one layer up (manifest digests, chunk digests).

Bytes encode_height_req(std::int64_t height) {
  ByteWriter w;
  w.i64(height);
  return w.take();
}

Result<std::int64_t> decode_height_req(const Bytes& payload) {
  ByteReader r(payload);
  const std::int64_t height = r.read_i64();
  return r.finish(height, errc::kSnapshotBadMessage);
}

struct ChunkReq {
  std::int64_t height = 0;
  std::uint32_t index = 0;
};

Bytes encode_chunk_req(const ChunkReq& req) {
  ByteWriter w;
  w.i64(req.height);
  w.u32(req.index);
  return w.take();
}

Result<ChunkReq> decode_chunk_req(const Bytes& payload) {
  ByteReader r(payload);
  ChunkReq req;
  req.height = r.read_i64();
  req.index = r.read_u32();
  return r.finish(req, errc::kSnapshotBadMessage);
}

// Response status byte. kBusy is the chunk path's explicit load-shed NACK:
// cheap to produce (no source lookup, empty data) and never shed itself, it
// tells the client to back off without burning its retry budget — a silent
// shed would be indistinguishable from packet loss and charged as one.
constexpr std::uint8_t kRespRefused = 0;
constexpr std::uint8_t kRespOk = 1;
constexpr std::uint8_t kRespBusy = 2;

struct Resp {
  std::int64_t height = 0;
  std::uint32_t index = 0;  ///< chunk responses only
  std::uint8_t status = kRespRefused;
  Bytes data;

  [[nodiscard]] bool ok() const { return status == kRespOk; }
};

Bytes encode_resp(const Resp& resp, bool with_index) {
  ByteWriter w;
  w.i64(resp.height);
  if (with_index) w.u32(resp.index);
  w.u8(resp.status);
  w.bytes(resp.data);
  return w.take();
}

Result<Resp> decode_resp(const Bytes& payload, bool with_index) {
  ByteReader r(payload);
  Resp resp;
  resp.height = r.read_i64();
  if (with_index) resp.index = r.read_u32();
  resp.status = r.read_u8();
  if (resp.status > kRespBusy) r.fail(errc::kSnapshotBadMessage, "unknown status");
  resp.data = r.read_bytes();
  return r.finish(std::move(resp), errc::kSnapshotBadMessage);
}

}  // namespace

// ---------------------------------------------------------- SnapshotServer

bool SnapshotServer::handle(const Message& msg) {
  if (msg.topic == kSnapshotManifestReq) {
    const auto height = decode_height_req(msg.payload());
    if (!height.ok()) return true;
    Resp resp;
    resp.height = height.value();
    resp.data = source_.manifest ? source_.manifest(resp.height) : Bytes{};
    resp.status = resp.data.empty() ? kRespRefused : kRespOk;
    (void)network_.send(self_, msg.from, kSnapshotManifestResp,
                        encode_resp(resp, /*with_index=*/false));
    return true;
  }
  if (msg.topic == kSnapshotChunkReq) {
    const auto decoded = decode_chunk_req(msg.payload());
    if (!decoded.ok()) return true;
    const ChunkReq req = decoded.value();
    if (queue_ != nullptr) {
      // Served off the simulation thread as kSnapshotServe work. A shed job
      // is answered inline with a busy NACK — producing it costs no source
      // lookup and no serialization of chunk data, so the NACK itself is
      // never shed — and the client backs off immediately instead of
      // spending timeout ticks and a retry on what looks like loss.
      const NodeId requester = msg.from;
      const std::int64_t height = req.height;
      const std::uint32_t index = req.index;
      const bool admitted = queue_->submit(
          JobClass::kSnapshotServe, [this, requester, height, index] {
            serve_chunk(requester, height, index);
          });
      if (!admitted) {
        Resp resp;
        resp.height = height;
        resp.index = index;
        resp.status = kRespBusy;
        network_.note_snapshot_busy_nack();
        (void)network_.send(self_, requester, kSnapshotChunkResp,
                            encode_resp(resp, /*with_index=*/true));
      }
      return true;
    }
    serve_chunk(msg.from, req.height, req.index);
    return true;
  }
  if (msg.topic == kSnapshotBlocksReq) {
    const auto from_height = decode_height_req(msg.payload());
    if (!from_height.ok()) return true;
    Resp resp;
    resp.height = from_height.value();
    resp.data = source_.blocks ? source_.blocks(resp.height) : Bytes{};
    // An empty archive is still a valid answer (the peer is already caught
    // up); only a missing callback refuses.
    resp.status = source_.blocks ? kRespOk : kRespRefused;
    (void)network_.send(self_, msg.from, kSnapshotBlocksResp,
                        encode_resp(resp, /*with_index=*/false));
    return true;
  }
  return false;
}

void SnapshotServer::serve_chunk(NodeId requester, std::int64_t height,
                                 std::uint32_t index) {
  Resp resp;
  resp.height = height;
  resp.index = index;
  resp.data = source_.chunk ? source_.chunk(height, index) : Bytes{};
  resp.status = resp.data.empty() ? kRespRefused : kRespOk;
  if (resp.ok() && chunk_fault_) chunk_fault_(index, resp.data);
  if (resp.ok()) network_.note_snapshot_chunk_served();
  (void)network_.send(self_, requester, kSnapshotChunkResp,
                      encode_resp(resp, /*with_index=*/true));
}

// ---------------------------------------------------------- SnapshotClient

Status SnapshotClient::start(std::vector<NodeId> peers, std::int64_t height) {
  if (phase_ != Phase::kIdle && phase_ != Phase::kDone &&
      phase_ != Phase::kFailed) {
    return Status::fail(errc::kSnapshotBusy, "a sync is already running");
  }
  if (peers.empty()) {
    return Status::fail(errc::kSnapshotNoPeers, "no peers to sync from");
  }
  peers_.clear();
  peers_.reserve(peers.size());
  for (NodeId id : peers) {
    PeerState p;
    p.id = id;
    peers_.push_back(p);
  }
  height_ = height;
  phase_ = Phase::kManifest;
  failure_.reset();
  manifest_bytes_.clear();
  expected_.clear();
  chunks_.clear();
  inflight_.clear();
  have_.clear();
  received_ = 0;
  next_unrequested_ = 0;
  blocks_peer_ = 0;
  single_ = Inflight{};
  send_manifest_req();
  return {};
}

void SnapshotClient::fail(std::string code, std::string message) {
  phase_ = Phase::kFailed;
  failure_ = Error{std::move(code), std::move(message)};
  network_.note_snapshot_sync(false);
}

void SnapshotClient::strike(std::size_t peer_idx) {
  PeerState& p = peers_[peer_idx];
  ++p.strikes;
  p.clean_streak = 0;
  if (!p.demoted && p.strikes >= config_.demote_after) {
    p.demoted = true;
    network_.note_snapshot_peer_demoted();
  }
}

void SnapshotClient::strike_out(std::size_t peer_idx) {
  PeerState& p = peers_[peer_idx];
  p.strikes = std::max(p.strikes, config_.demote_after);
  p.clean_streak = 0;
  if (!p.demoted) {
    p.demoted = true;
    network_.note_snapshot_peer_demoted();
  }
}

void SnapshotClient::credit(std::size_t peer_idx) {
  PeerState& p = peers_[peer_idx];
  if (!p.demoted || config_.promote_after == 0) return;
  if (++p.clean_streak >= config_.promote_after) {
    p.demoted = false;
    p.strikes = 0;
    p.clean_streak = 0;
    network_.note_snapshot_peer_promoted();
  }
}

int SnapshotClient::peer_index(NodeId id) const {
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (peers_[i].id == id) return static_cast<int>(i);
  }
  return -1;
}

int SnapshotClient::pick_peer(int avoid, bool exclude_avoid) const {
  // Lexicographic score: not the peer we are steering away from, then not
  // demoted, then fewest strikes, then least loaded — reputation-weighted
  // selection that spreads the stripe over the healthiest peers and only
  // returns to a demoted one when nobody else has capacity.
  int best = -1;
  auto score = [&](std::size_t i) {
    const PeerState& p = peers_[i];
    return std::tuple<int, int, std::size_t, std::size_t, std::size_t>(
        static_cast<int>(i) == avoid ? 1 : 0, p.demoted ? 1 : 0, p.strikes,
        p.inflight, i);
  };
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    const PeerState& p = peers_[i];
    if (p.refused || !p.has_manifest) continue;
    if (p.inflight >= config_.per_peer_inflight) continue;
    if (exclude_avoid && static_cast<int>(i) == avoid) continue;
    if (best < 0 || score(i) < score(static_cast<std::size_t>(best))) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

bool SnapshotClient::all_peers_refused() const {
  return std::all_of(peers_.begin(), peers_.end(),
                     [](const PeerState& p) { return p.refused; });
}

void SnapshotClient::send_manifest_req() {
  single_.sent_at = network_.clock().now();
  for (const PeerState& p : peers_) {
    if (p.refused || p.has_manifest || p.demoted) continue;
    (void)network_.send(self_, p.id, kSnapshotManifestReq,
                        encode_height_req(height_));
  }
}

void SnapshotClient::send_blocks_req() {
  // The suffix is one request: aim it at the best-reputed peer (most chunks
  // served, fewest strikes), skipping demoted peers while any healthy one
  // remains.
  int best = -1;
  auto score = [&](std::size_t i) {
    const PeerState& p = peers_[i];
    // ~served: lexicographic min prefers the peer that served the most.
    return std::tuple<int, std::size_t, std::size_t, std::size_t>(
        p.demoted ? 1 : 0, p.strikes, ~p.served, i);
  };
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (peers_[i].refused) continue;
    if (best < 0 || score(i) < score(static_cast<std::size_t>(best))) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) best = 0;  // all refused is failed earlier; belt and braces
  blocks_peer_ = static_cast<std::size_t>(best);
  single_.sent_at = network_.clock().now();
  (void)network_.send(self_, peers_[blocks_peer_].id, kSnapshotBlocksReq,
                      encode_height_req(replay_from_));
}

void SnapshotClient::request_chunk(std::uint32_t index, std::size_t peer_idx) {
  auto& slot = inflight_[index];
  if (slot.has_value()) {
    // Invariant: an existing slot is charged against exactly one peer.
    --peers_[slot->peer].inflight;
  } else {
    slot = Inflight{};
  }
  slot->peer = peer_idx;
  ++peers_[peer_idx].inflight;
  slot->sent_at = network_.clock().now();
  slot->resend_at = -1;
  (void)network_.send(self_, peers_[peer_idx].id, kSnapshotChunkReq,
                      encode_chunk_req(ChunkReq{height_, index}));
}

void SnapshotClient::retry(Inflight& slot, const std::function<void()>& resend) {
  if (slot.retries >= config_.max_retries) {
    fail(errc::kSnapshotTimeout, "retry budget exhausted");
    return;
  }
  ++slot.retries;
  network_.note_snapshot_retry();
  resend();
}

void SnapshotClient::fill_window() {
  std::size_t in_flight = 0;
  for (const auto& slot : inflight_) {
    if (slot.has_value()) ++in_flight;
  }
  while (in_flight < config_.window && next_unrequested_ < have_.size()) {
    if (have_[next_unrequested_]) {  // prefilled from the diff base
      ++next_unrequested_;
      continue;
    }
    const int peer = pick_peer(/*avoid=*/-1, /*exclude_avoid=*/false);
    if (peer < 0) break;  // every eligible peer is at its in-flight cap
    request_chunk(next_unrequested_++, static_cast<std::size_t>(peer));
    ++in_flight;
  }
}

void SnapshotClient::finish_chunks() {
  auto replay_from = hooks_.install(std::move(chunks_));
  chunks_.clear();
  if (!replay_from.ok()) {
    fail(replay_from.error().code, replay_from.error().message);
    return;
  }
  replay_from_ = replay_from.value();
  phase_ = Phase::kBlocks;
  single_ = Inflight{};
  send_blocks_req();
}

void SnapshotClient::on_manifest(const Message& msg) {
  if (phase_ != Phase::kManifest && phase_ != Phase::kChunks) return;
  const int from = peer_index(msg.from);
  if (from < 0) return;
  PeerState& peer = peers_[static_cast<std::size_t>(from)];
  if (peer.has_manifest || peer.refused) return;  // duplicate answer
  const auto decoded = decode_resp(msg.payload(), /*with_index=*/false);
  if (!decoded.ok() || decoded.value().height != height_) return;
  const Resp& resp = decoded.value();
  if (!resp.ok()) {
    peer.refused = true;
    if (phase_ == Phase::kManifest && all_peers_refused()) {
      fail(errc::kSnapshotUnavailable, "no peer serves this height");
    }
    return;
  }
  if (!manifest_bytes_.empty()) {
    // A manifest is already anchored; later advertisements must match it
    // byte for byte (the encoding is canonical, so honest replicas of the
    // same snapshot agree exactly). A divergent manifest is either another
    // chunk geometry — useless for striping — or a lying peer; both are
    // struck out of the stripe.
    if (resp.data == manifest_bytes_) {
      peer.has_manifest = true;
      if (phase_ == Phase::kChunks) fill_window();
    } else {
      strike_out(static_cast<std::size_t>(from));
    }
    return;
  }
  auto digests = hooks_.accept_manifest(height_, resp.data);
  if (!digests.ok()) {
    // This peer's manifest failed authentication. That poisons the peer,
    // not necessarily the sync: another peer may still deliver a manifest
    // that binds to the verified header. Fail only when none can.
    strike_out(static_cast<std::size_t>(from));
    const bool candidates_left =
        std::any_of(peers_.begin(), peers_.end(), [](const PeerState& p) {
          return !p.refused && !p.demoted;
        });
    if (!candidates_left) {
      fail(digests.error().code, digests.error().message);
    }
    return;
  }
  expected_ = std::move(digests).value();
  if (expected_.empty()) {
    fail(errc::kSnapshotBadManifest, "manifest commits to zero chunks");
    return;
  }
  manifest_bytes_ = resp.data;
  peer.has_manifest = true;
  chunks_.assign(expected_.size(), Bytes{});
  inflight_.assign(expected_.size(), std::nullopt);
  have_.assign(expected_.size(), false);
  received_ = 0;
  next_unrequested_ = 0;
  phase_ = Phase::kChunks;
  if (hooks_.prefill) {
    // Diff snapshot: reuse locally-held chunks whose digests already match
    // the manifest. Each is verified like a served chunk, so a stale or
    // corrupt base silently degrades to fetching that chunk.
    for (auto& [index, bytes] : hooks_.prefill()) {
      if (index >= have_.size() || have_[index]) continue;
      if (hooks_.chunk_digest(index, bytes) != expected_[index]) continue;
      chunks_[index] = std::move(bytes);
      have_[index] = true;
      ++received_;
      network_.note_snapshot_diff_chunk_reused();
    }
  }
  if (received_ == have_.size()) {
    finish_chunks();
    return;
  }
  fill_window();
}

void SnapshotClient::on_chunk(const Message& msg) {
  if (phase_ != Phase::kChunks) return;
  const int from = peer_index(msg.from);
  if (from < 0) return;
  auto decoded = decode_resp(msg.payload(), /*with_index=*/true);
  if (!decoded.ok() || decoded.value().height != height_ ||
      decoded.value().index >= have_.size()) {
    return;
  }
  Resp resp = std::move(decoded).value();
  const std::uint32_t index = resp.index;
  if (have_[index]) return;  // duplicate after a retried request
  auto& slot = inflight_[index];
  if (!slot.has_value()) return;  // stale reply from an abandoned sync
  if (slot->peer != static_cast<std::size_t>(from)) {
    return;  // answer from a peer this chunk is no longer routed to
  }
  PeerState& peer = peers_[slot->peer];
  if (resp.status == kRespBusy) {
    // The server shed the serve job and said so. An honest "busy" never
    // charges the loss-retry budget. With other peers available the request
    // is re-aimed at the least-loaded one immediately; alone with the busy
    // server, it parks on a linear backoff. Either way consecutive busy
    // answers are capped: exhaustion demotes the peer and reroutes, and
    // only a swarm with nowhere left to go fails.
    ++slot->busy_defers;
    if (slot->busy_defers > config_.max_retries * 4) {
      strike_out(slot->peer);
      // Exhaustion only ever reroutes to a peer in good standing: if every
      // alternative has already been demoted, the whole swarm is saturated
      // and the sync fails like the single-peer dead end.
      const int other = pick_peer(from, /*exclude_avoid=*/true);
      if (other < 0 || peers_[static_cast<std::size_t>(other)].demoted) {
        fail(errc::kSnapshotServerBusy, "server persistently busy for chunk " +
                                            std::to_string(index));
        return;
      }
      slot->busy_defers = 0;
      network_.note_snapshot_busy_reroute();
      request_chunk(index, static_cast<std::size_t>(other));
      return;
    }
    if (const int other = pick_peer(from, /*exclude_avoid=*/true); other >= 0) {
      network_.note_snapshot_busy_reroute();
      request_chunk(index, static_cast<std::size_t>(other));
      return;
    }
    slot->resend_at = network_.clock().now() +
                      config_.backoff * static_cast<Tick>(slot->busy_defers);
    return;
  }
  if (!resp.ok()) {
    // The peer advertised this snapshot but refuses one of its chunks —
    // inconsistent, so stop trusting it. Another peer can still serve the
    // chunk; only a swarm with no peer left fails.
    strike_out(slot->peer);
    const int other = pick_peer(from, /*exclude_avoid=*/true);
    if (other < 0) {
      fail(errc::kSnapshotUnavailable,
           "peer refused chunk " + std::to_string(index));
      return;
    }
    request_chunk(index, static_cast<std::size_t>(other));
    return;
  }
  if (hooks_.chunk_digest(index, resp.data) != expected_[index]) {
    // Corrupted in flight (or a lying peer): never installed, re-requested
    // like a loss — preferring a different peer, and striking the one that
    // served garbage so a byzantine replica drops out of the stripe.
    network_.note_snapshot_chunk_rejected();
    strike(slot->peer);
    retry(*slot, [this, index, from] {
      const int other = pick_peer(from, /*exclude_avoid=*/false);
      request_chunk(index, other >= 0 ? static_cast<std::size_t>(other)
                                      : inflight_[index]->peer);
    });
    return;
  }
  network_.note_snapshot_chunk_verified();
  chunks_[index] = std::move(resp.data);
  have_[index] = true;
  --peer.inflight;
  ++peer.served;
  credit(slot->peer);
  slot.reset();
  ++received_;
  if (received_ < have_.size()) {
    fill_window();
    return;
  }
  finish_chunks();
}

void SnapshotClient::on_blocks(const Message& msg) {
  if (phase_ != Phase::kBlocks) return;
  if (msg.from != peers_[blocks_peer_].id) return;
  const auto decoded = decode_resp(msg.payload(), /*with_index=*/false);
  if (!decoded.ok() || decoded.value().height != replay_from_) return;
  const Resp& resp = decoded.value();
  if (!resp.ok()) {
    fail(errc::kSnapshotUnavailable, "peer does not serve the block suffix");
    return;
  }
  if (Status s = hooks_.replay(resp.data); !s.ok()) {
    fail(s.error().code, s.error().message);
    return;
  }
  phase_ = Phase::kDone;
  network_.note_snapshot_sync(true);
}

bool SnapshotClient::handle(const Message& msg) {
  if (msg.topic == kSnapshotManifestResp) {
    on_manifest(msg);
    return true;
  }
  if (msg.topic == kSnapshotChunkResp) {
    on_chunk(msg);
    return true;
  }
  if (msg.topic == kSnapshotBlocksResp) {
    on_blocks(msg);
    return true;
  }
  return false;
}

void SnapshotClient::tick() {
  const Tick now = network_.clock().now();
  const auto timed_out = [&](const Inflight& slot) {
    if (slot.resend_at >= 0) return false;  // parked on busy backoff
    const Tick deadline =
        slot.sent_at + config_.request_timeout +
        static_cast<Tick>(slot.retries) * config_.backoff;
    return now > deadline;
  };
  switch (phase_) {
    case Phase::kManifest:
      if (timed_out(single_)) retry(single_, [this] { send_manifest_req(); });
      break;
    case Phase::kChunks:
      for (std::uint32_t i = 0; i < inflight_.size(); ++i) {
        auto& slot = inflight_[i];
        if (!slot.has_value()) continue;
        if (slot->resend_at >= 0 && now >= slot->resend_at) {
          // Busy backoff elapsed: re-send without touching the retry
          // budget. Another peer may have freed up in the meantime.
          const int p = pick_peer(static_cast<int>(slot->peer),
                                  /*exclude_avoid=*/false);
          request_chunk(i, p >= 0 ? static_cast<std::size_t>(p) : slot->peer);
          continue;
        }
        if (!timed_out(*slot)) continue;
        // A straggler: the stripe moves the chunk to a different peer when
        // one has capacity, and the quiet peer takes a reputation strike.
        strike(slot->peer);
        retry(*slot, [this, i] {
          auto& s = inflight_[i];
          const int p = pick_peer(static_cast<int>(s->peer),
                                  /*exclude_avoid=*/false);
          request_chunk(i, p >= 0 ? static_cast<std::size_t>(p) : s->peer);
        });
        if (phase_ == Phase::kFailed) return;
      }
      break;
    case Phase::kBlocks:
      if (timed_out(single_)) {
        retry(single_, [this] { send_blocks_req(); });
      }
      break;
    default:
      break;
  }
}

}  // namespace mv::net
