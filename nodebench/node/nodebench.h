// Node benchmark: a generator phase that turns a seed into encoded inputs, and
// a node phase that replays those inputs through the ledger's public entry
// points, timing each layer from the outside.
//
// The two phases run in separate processes (run.py), so the node's set-up
// time, peak RSS and in-process memos measure the node alone.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/wallet.h"
#include "ledger/block.h"
#include "scenario/trace.h"

namespace nodebench {

using mv::Bytes;

enum class Workload : std::uint8_t {
  kCityProposer = 0,      ///< mixed_city mix, the node proposes every block
  kTransferFollower = 1,  ///< replica validating blocks assembled elsewhere
  kMultiWorld = 2,        ///< 4-shard ShardedLedger with cross-world receipts
};

[[nodiscard]] mv::Result<Workload> parse_workload(const std::string& name);
[[nodiscard]] const char* workload_name(Workload w);

// Workload shapes, shared by the generator and the node.
inline constexpr std::uint64_t kCityAvatars = 10'000;
inline constexpr std::uint32_t kCityTxsPerRound = 512;
inline constexpr std::uint32_t kCityRounds = 40;
inline constexpr std::size_t kCityReadsPerRound = 256;
inline constexpr std::size_t kCityFeeds = 64;
inline constexpr int kCitySetups = 5;  ///< node constructions per process

inline constexpr std::uint64_t kFollowerAccounts = 100'000;
inline constexpr std::size_t kFollowerSenders = 4'096;
inline constexpr std::uint32_t kFollowerTxsPerBlock = 512;
inline constexpr std::uint32_t kFollowerBlocks = 80;
inline constexpr std::size_t kFollowerReads = 1'024;
inline constexpr int kFollowerSetups = 3;

inline constexpr std::uint64_t kMultiAvatars = 8'192;
inline constexpr std::uint32_t kMultiShards = 4;
inline constexpr std::uint32_t kMultiIntraPerRound = 1'024;
inline constexpr std::uint32_t kMultiCrossPerRound = 128;
inline constexpr std::uint32_t kMultiRounds = 40;
inline constexpr std::uint32_t kMultiMaxTxsPerShardBlock = 1'024;
inline constexpr std::size_t kMultiReadsPerRound = 64;
inline constexpr int kMultiSetups = 5;

inline constexpr std::uint32_t kValidators = 4;
inline constexpr std::uint64_t kGrant = 1'000'000;

/// Everything the node replays, produced by the generator phase.
struct Inputs {
  Workload workload = Workload::kCityProposer;
  std::uint64_t seed = 0;
  /// city_proposer: the recorded mixed_city scenario (per-round txs + roots).
  mv::scenario::Trace trace;
  /// transfer_follower and multi_world: genesis credits `grant` to each
  /// account; `roots` holds each block's state root (follower) or each
  /// round's beacon root (multi_world).
  std::uint64_t grant = 0;
  std::vector<mv::crypto::Address> accounts;
  std::vector<mv::ledger::Block> blocks;                      ///< follower
  std::vector<std::vector<mv::ledger::Transaction>> rounds;   ///< multi_world
  std::vector<mv::crypto::Digest> roots;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static mv::Result<Inputs> decode(const Bytes& bytes);
};

/// Validator wallets for the follower and multi-world workloads: a stream of
/// their own, so the node derives the proposer keys and no avatar key.
[[nodiscard]] std::vector<mv::crypto::Wallet> derive_validators(
    std::uint64_t seed);
[[nodiscard]] std::vector<mv::crypto::PublicKey> validator_keys(
    const std::vector<mv::crypto::Wallet>& validators);

/// Generator phase: the inputs for (workload, seed).
[[nodiscard]] mv::Result<Inputs> generate(Workload w, std::uint64_t seed);

/// Node phase: replay the inputs and print one JSON report line on stdout.
/// `queue_workers` sizes the JobQueue of the follower and multi-world nodes
/// (0 = inline). With `trace` set, spans around every timed call are kept
/// in memory and written to `spans_path` at exit. Returns the exit code.
[[nodiscard]] int drive(const Inputs& in, bool trace, std::size_t queue_workers,
                        const std::string& spans_path);

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace nodebench
