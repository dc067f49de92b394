// Simulated message-passing network.
//
// The decentralized substrates (ledger consensus, gossip) run on top of this
// network instead of real sockets: discrete-event delivery on the shared
// SimClock with per-link latency, jitter, loss, and named partitions.
// Everything is deterministic given the seed.
//
// Threading: send()/broadcast() and the stats counters are internally
// locked, so protocol jobs running on JobQueue workers (gossip relays,
// snapshot chunk serving) may send concurrently with the simulation thread.
// Delivery stays single-threaded: step()/run_until_idle() must be driven
// from one thread, and handlers run on it. Enqueue order — and therefore
// the FIFO tie-break between same-tick messages — follows whatever order
// concurrent senders win the lock, so byte-exact delivery traces are only
// guaranteed while all sends come from one thread (the seed configuration).
// Topology calls (add_node/set_link/set_group/heal) are setup-phase: finish
// them before concurrent traffic starts.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/ids.h"
#include "common/rng.h"

namespace mv::net {

struct Message {
  NodeId from;
  NodeId to;
  std::string topic;
  /// Payload buffer, shared across broadcast/relay recipients so one encode
  /// serves every copy in flight. Never mutated after send.
  std::shared_ptr<const Bytes> payload_buf;
  Tick sent_at = 0;
  Tick deliver_at = 0;

  [[nodiscard]] const Bytes& payload() const {
    static const Bytes kEmpty;
    return payload_buf ? *payload_buf : kEmpty;
  }
};

/// Link behaviour; latency is in clock ticks.
struct LinkParams {
  double base_latency = 1.0;
  double jitter = 0.5;      ///< uniform extra in [0, jitter)
  double drop_rate = 0.0;   ///< iid loss probability
};

struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t partitioned = 0;
  std::uint64_t invalid_dest = 0;  ///< sends refused: unknown destination
  std::uint64_t bytes_sent = 0;
  /// Relays withheld by a protocol's backpressure (e.g. Gossip's in-flight
  /// high-water mark) — never entered the queue, distinct from link `dropped`.
  std::uint64_t backpressure_dropped = 0;
  // Snapshot-transfer protocol counters (net/snapshot_transfer.h).
  std::uint64_t snapshot_chunks_served = 0;    ///< chunk responses sent
  std::uint64_t snapshot_chunks_verified = 0;  ///< arrived with a good digest
  std::uint64_t snapshot_chunks_rejected = 0;  ///< corrupted/refused on arrival
  std::uint64_t snapshot_retries = 0;          ///< re-requests (timeout/reject)
  std::uint64_t snapshot_syncs_completed = 0;
  std::uint64_t snapshot_syncs_failed = 0;
  /// Chunk requests answered with an explicit server_busy NACK (the serve
  /// job was shed) instead of a silent non-answer.
  std::uint64_t snapshot_busy_nacks = 0;
  // Swarm catch-up counters (multi-peer striped sync).
  std::uint64_t snapshot_peers_demoted = 0;    ///< reputation strikes reached the cap
  std::uint64_t snapshot_peers_promoted = 0;   ///< demoted peers recovered via clean serves
  std::uint64_t snapshot_busy_reroutes = 0;    ///< busy NACK re-aimed at another peer
  std::uint64_t snapshot_diff_chunks_reused = 0;  ///< served from the local diff base
};

class Network {
 public:
  using Handler = std::function<void(const Message&)>;

  Network(SimClock& clock, Rng rng, LinkParams defaults = {});

  /// Register a node; the handler runs at delivery time.
  NodeId add_node(Handler handler);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::vector<NodeId> node_ids() const;

  /// Override link parameters for a directed pair.
  void set_link(NodeId from, NodeId to, LinkParams params);

  /// Assign a node to a partition group; messages across groups are dropped
  /// until heal() is called. Default group is 0.
  void set_group(NodeId node, int group);
  void heal();

  /// Queue a unicast message; returns false if refused at send time (unknown
  /// destination, partition, or simulated loss).
  bool send(NodeId from, NodeId to, std::string topic, Bytes payload);
  /// Zero-copy variant: the payload buffer is shared with the message, not
  /// copied. The caller must not mutate it afterwards.
  bool send(NodeId from, NodeId to, std::string topic,
            std::shared_ptr<const Bytes> payload);

  /// Queue the same payload to every other node. All recipients share one
  /// payload buffer — the bytes are copied once, not node_count-1 times.
  void broadcast(NodeId from, const std::string& topic, const Bytes& payload);
  void broadcast(NodeId from, const std::string& topic,
                 std::shared_ptr<const Bytes> payload);

  /// Deliver everything due at or before the current tick.
  void step();

  /// Convenience: advance the clock tick-by-tick until the queue drains or
  /// `max_ticks` elapse. Returns ticks advanced.
  Tick run_until_idle(Tick max_ticks = 100000);

  [[nodiscard]] bool idle() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.empty();
  }
  /// Snapshot of the counters (copied under the lock; counters may advance
  /// while worker-executed protocol jobs are still in flight — drain the
  /// queue first for exact values).
  [[nodiscard]] NetworkStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  /// Record `n` protocol-level backpressure drops (see NetworkStats).
  void note_backpressure_drop(std::uint64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.backpressure_dropped += n;
  }
  // Snapshot-transfer protocol events (net/snapshot_transfer.h).
  void note_snapshot_chunk_served() { count(&NetworkStats::snapshot_chunks_served); }
  void note_snapshot_chunk_verified() { count(&NetworkStats::snapshot_chunks_verified); }
  void note_snapshot_chunk_rejected() { count(&NetworkStats::snapshot_chunks_rejected); }
  void note_snapshot_retry() { count(&NetworkStats::snapshot_retries); }
  void note_snapshot_sync(bool completed) {
    count(completed ? &NetworkStats::snapshot_syncs_completed
                    : &NetworkStats::snapshot_syncs_failed);
  }
  void note_snapshot_busy_nack() { count(&NetworkStats::snapshot_busy_nacks); }
  void note_snapshot_peer_demoted() { count(&NetworkStats::snapshot_peers_demoted); }
  void note_snapshot_peer_promoted() { count(&NetworkStats::snapshot_peers_promoted); }
  void note_snapshot_busy_reroute() { count(&NetworkStats::snapshot_busy_reroutes); }
  void note_snapshot_diff_chunk_reused() {
    count(&NetworkStats::snapshot_diff_chunks_reused);
  }
  [[nodiscard]] SimClock& clock() { return clock_; }

 private:
  struct Pending {
    Message msg;
    std::uint64_t seq;  // FIFO tie-break for equal delivery ticks
    bool operator>(const Pending& other) const {
      if (msg.deliver_at != other.msg.deliver_at) {
        return msg.deliver_at > other.msg.deliver_at;
      }
      return seq > other.seq;
    }
  };

  [[nodiscard]] const LinkParams& link(NodeId from, NodeId to) const;

  void count(std::uint64_t NetworkStats::* field) {
    std::lock_guard<std::mutex> lock(mu_);
    ++(stats_.*field);
  }

  SimClock& clock_;
  /// Guards queue_/seq_/stats_/rng_ against concurrent senders (JobQueue
  /// workers). Never held while a delivery handler runs.
  mutable std::mutex mu_;
  Rng rng_;
  LinkParams defaults_;
  std::vector<Handler> nodes_;
  std::unordered_map<NodeId, int> groups_;
  std::map<std::pair<NodeId, NodeId>, LinkParams> links_;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> queue_;
  std::uint64_t seq_ = 0;
  NetworkStats stats_;
};

}  // namespace mv::net
