// Node phase: replay generated inputs through the ledger's public entry
// points and time each layer from the outside.
//
// Every workload is a closed loop: round r + 1 is submitted only after round
// r has committed and its root has been checked. A round's latency runs from
// its first submit to that check. Reads and pushes are served between rounds
// and timed on their own.
//
// Tracing (--trace 1) records one span around each public call, parented to
// the round span and tagged with the round id, plus counter snapshots from
// the stats getters at the same boundaries. Spans stay in memory and are
// written out at exit. With tracing off the span wrapper is a plain call.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <map>
#include <numeric>
#include <string>
#include <utility>

#include "common/job_queue.h"
#include "node/nodebench.h"
#include "ledger/chain.h"
#include "ledger/client_api.h"
#include "ledger/mempool.h"
#include "ledger/shard.h"
#include "ledger/subscription.h"
#include "net/network.h"
#include "net/subscription.h"
#include "scenario/invariants.h"
#include "scenario/scenario.h"

namespace nodebench {

namespace {

using namespace mv;

constexpr std::uint64_t kNetSalt = 0x6e622e6e65742e31ULL;   // "nb.net.1"
constexpr std::uint64_t kExecSalt = 0x6e622e6578652e31ULL;  // "nb.exe.1"
constexpr std::uint64_t kReadSalt = 0x6e622e7265612e31ULL;  // "nb.rea.1"

// ------------------------------------------------------------------ tracing

enum Layer : std::uint8_t {
  kRound,
  kMempoolAdd,
  kMempoolSelect,
  kChainAssemble,
  kChainAppend,
  kMempoolRemove,
  kPushDeliver,
  kReadHeader,
  kReadDispatch,
  kReadDecodeVerify,
  kShardSubmit,
  kShardCommitRound,
  kShardProveReceipt,
  kShardProveAccount,
  kLayerCount,
};

constexpr const char* kLayerNames[kLayerCount] = {
    "round",          "mempool.add",         "mempool.select",
    "chain.assemble", "chain.append",        "mempool.remove",
    "push.deliver",   "read.header_accept",  "read.dispatch",
    "read.decode_verify", "shard.submit",    "shard.commit_round",
    "shard.prove_receipt", "shard.prove_account",
};

struct Span {
  Layer layer = kRound;
  std::uint32_t round = 0;
  std::int64_t parent = -1;  ///< index of the round span, -1 for roots
  std::int64_t start = 0;
  std::int64_t end = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1u << 18);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  void begin_round(std::uint32_t id) {
    round_ = id;
    if (!enabled_) return;
    parent_ = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({kRound, id, -1, now_ns(), 0});
  }
  void end_round() {
    if (!enabled_) return;
    spans_[static_cast<std::size_t>(parent_)].end = now_ns();
    parent_ = -1;
  }

  /// Run fn, recording a child span of the current round around it.
  template <class F>
  auto span(Layer layer, F&& fn) {
    Guard guard{enabled_ ? this : nullptr, layer, enabled_ ? now_ns() : 0};
    return fn();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per-call durations (ns) of one layer.
  [[nodiscard]] std::vector<double> durations(Layer layer) const {
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (s.layer == layer) out.push_back(static_cast<double>(s.end - s.start));
    }
    return out;
  }

  /// Per-round summed durations (ns) of one layer, over rounds that ran it.
  [[nodiscard]] std::vector<double> round_sums(Layer layer) const {
    std::vector<double> sums;
    std::int64_t current = -2;
    for (const auto& s : spans_) {
      if (s.layer != layer) continue;
      if (s.parent != current) {
        sums.push_back(0.0);
        current = s.parent;
      }
      sums.back() += static_cast<double>(s.end - s.start);
    }
    return sums;
  }

  /// Self time (ns) of every span: its duration minus its children's.
  [[nodiscard]] std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = static_cast<double>(spans_[i].end - spans_[i].start);
    }
    for (const auto& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -=
            static_cast<double>(s.end - s.start);
      }
    }
    return self;
  }

  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "layer,round,parent,start_ns,end_ns\n";
    for (const auto& s : spans_) {
      out << kLayerNames[s.layer] << ',' << s.round << ',' << s.parent << ','
          << s.start << ',' << s.end << '\n';
    }
  }

 private:
  struct Guard {
    Tracer* tracer;
    Layer layer;
    std::int64_t start;
    ~Guard() {
      if (tracer == nullptr) return;
      tracer->spans_.push_back(
          {layer, tracer->round_, tracer->parent_, start, now_ns()});
    }
  };

  bool enabled_;
  std::uint32_t round_ = 0;
  std::int64_t parent_ = -1;
  std::vector<Span> spans_;
};

// -------------------------------------------------------------- core rotation

/// Pins the calling thread to each allowed core in turn, one per round.
/// Interference from other tenants differs per core and drifts over seconds;
/// visiting every core inside each process averages it out instead of
/// letting one core's neighbours set a whole process's figures. Threads the
/// node started earlier (queue workers) keep the full mask.
class CoreRotation {
 public:
  CoreRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cores_.push_back(c);
    }
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;
  ~CoreRotation() { pin(cores_); }

  void next() {
    if (cores_.size() > 1) pin({cores_[next_++ % cores_.size()]});
  }

 private:
  static void pin(const std::vector<int>& cores) {
    if (cores.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : cores) CPU_SET(c, &set);
    (void)sched_setaffinity(0, sizeof(set), &set);
  }

  std::vector<int> cores_;
  std::size_t next_ = 0;
};

// ---------------------------------------------------------------- reference

/// A fixed kernel of the benchmark's own (no library code): integer mixing,
/// dependent loads from an 8 MiB table, and ordered-map churn. It is timed
/// right before each round, on the core the round then runs on, so run.py
/// can scale each round by how fast the machine was just then. Its cost
/// moves with the machine, never with the code under test.
class Reference {
 public:
  Reference() : table_(1u << 20) {
    for (std::size_t i = 0; i < table_.size(); ++i) table_[i] = mix(i);
  }

  /// One pass; returns its wall time in milliseconds.
  double run() {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < 20'000; ++i) x_ = mix(x_);
    for (int i = 0; i < 10'000; ++i) x_ ^= table_[x_ & (table_.size() - 1)];
    for (int i = 0; i < 1'000; ++i) {
      tree_.emplace(mix(x_ + static_cast<std::uint64_t>(i)), x_);
      if (tree_.size() > 20'000) tree_.erase(tree_.begin());
    }
    return static_cast<double>(now_ns() - t0) / 1e6;
  }

 private:
  static std::uint64_t mix(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::vector<std::uint64_t> table_;
  std::map<std::uint64_t, std::uint64_t> tree_;
  std::uint64_t x_ = 1;
};

// ------------------------------------------------------------------ report

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  return v[mid];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Report {
  std::vector<double> setup_s;  ///< one sample per node construction
  double loop_s = 0.0;
  std::uint64_t committed = 0;
  std::uint64_t attempted = 0;  ///< txs + reads + pushes
  std::uint64_t failed = 0;
  std::vector<double> round_ms;
  std::vector<double> read_us;
  std::vector<double> push_ms;
  std::vector<double> ref_ms;  ///< Reference::run() before each round
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, double>> layers;

  /// Count `n` attempted operations, `bad` of them failed; `what()` names
  /// the failure and is only called when there is one.
  template <class What>
  void ops(std::uint64_t n, std::uint64_t bad, What&& what) {
    attempted += n;
    failed += bad;
    if (bad > 0 && errors.size() < 8) errors.push_back(what());
  }
  /// Time spent in the reference kernel, which the loop timing excludes.
  [[nodiscard]] double reference_s() const {
    return std::accumulate(ref_ms.begin(), ref_ms.end(), 0.0) / 1e3;
  }
  void layer(std::string name, double value) {
    layers.emplace_back(std::move(name), value);
  }
};

void json_array(std::FILE* f, const char* key, const std::vector<double>& v) {
  std::fprintf(f, "\"%s\":[", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::fprintf(f, "%s%.9g", i ? "," : "", v[i]);
  }
  std::fprintf(f, "],");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c >= 0x20) ? c : ' ';
  }
  return out;
}

int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_report(const Inputs& in, bool traced, const Report& rep,
                  int threads) {
  std::FILE* f = stdout;
  std::fprintf(f, "{\"workload\":\"%s\",\"traced\":%s,", workload_name(in.workload),
               traced ? "true" : "false");
  std::fprintf(f,
               "\"loop_s\":%.9g,\"committed\":%llu,"
               "\"attempted\":%llu,\"failed\":%llu,\"threads\":%d,"
               "\"rss_mb\":%.6g,",
               rep.loop_s,
               static_cast<unsigned long long>(rep.committed),
               static_cast<unsigned long long>(rep.attempted),
               static_cast<unsigned long long>(rep.failed), threads,
               peak_rss_mb());
  json_array(f, "setup_s", rep.setup_s);
  json_array(f, "round_ms", rep.round_ms);
  json_array(f, "read_us", rep.read_us);
  json_array(f, "push_ms", rep.push_ms);
  json_array(f, "ref_ms", rep.ref_ms);
  std::fprintf(f, "\"errors\":[");
  for (std::size_t i = 0; i < rep.errors.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? "," : "", json_escape(rep.errors[i]).c_str());
  }
  std::fprintf(f, "],\"layers\":{");
  for (std::size_t i = 0; i < rep.layers.size(); ++i) {
    std::fprintf(f, "%s\"%s\":%.9g", i ? "," : "", rep.layers[i].first.c_str(),
                 rep.layers[i].second);
  }
  std::fprintf(f, "}}\n");
  std::fflush(f);
}

/// Per-layer figures every workload reports (a layer a workload does not
/// exercise reads 0): per-call medians in µs, per-round medians in ms, and
/// the round span's own self time.
void span_layers(const Tracer& tr, Report& rep) {
  const auto call_us = [&](Layer l) { return median(tr.durations(l)) / 1e3; };
  const auto round_ms = [&](Layer l) { return median(tr.round_sums(l)) / 1e6; };
  rep.layer("mempool.add_us", call_us(kMempoolAdd));
  rep.layer("mempool.select_ms", round_ms(kMempoolSelect));
  rep.layer("mempool.remove_ms", round_ms(kMempoolRemove));
  rep.layer("chain.assemble_ms", round_ms(kChainAssemble));
  rep.layer("chain.append_ms", round_ms(kChainAppend));
  const auto appends = tr.durations(kChainAppend);
  const double commit_ns =
      std::accumulate(rep.round_ms.begin(), rep.round_ms.end(), 0.0) * 1e6;
  rep.layer("chain.append_share",
            ratio(std::accumulate(appends.begin(), appends.end(), 0.0),
                  commit_ns));
  rep.layer("read.dispatch_us", call_us(kReadDispatch));
  rep.layer("read.decode_verify_us", call_us(kReadDecodeVerify));
  rep.layer("read.header_accept_us", call_us(kReadHeader));
  rep.layer("push.deliver_ms", median(rep.push_ms));
  rep.layer("shard.submit_us", call_us(kShardSubmit));
  rep.layer("shard.commit_round_ms", round_ms(kShardCommitRound));
  rep.layer("shard.prove_receipt_us", call_us(kShardProveReceipt));
  rep.layer("shard.prove_account_us", call_us(kShardProveAccount));

  const auto self = tr.self_times();
  std::vector<double> round_self;
  std::vector<double> total(kLayerCount, 0.0);
  for (std::size_t i = 0; i < self.size(); ++i) {
    total[tr.spans()[i].layer] += self[i];
    if (tr.spans()[i].layer == kRound) round_self.push_back(self[i]);
  }
  rep.layer("round.self_ms", median(round_self) / 1e6);
  // Human-readable self-time table on stderr: where the traced rounds went.
  const double all = std::accumulate(total.begin(), total.end(), 0.0);
  std::fprintf(stderr, "%-22s %12s %8s\n", "layer (self time)", "total_ms", "share");
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    if (total[l] <= 0.0) continue;
    std::fprintf(stderr, "%-22s %12.3f %7.1f%%\n", kLayerNames[l], total[l] / 1e6,
                 100.0 * ratio(total[l], all));
  }
}

void validation_layers(const ledger::ValidationStats& v, Report& rep) {
  const auto applies = static_cast<double>(v.applies);
  rep.layer("validation.groups_per_block",
            ratio(static_cast<double>(v.conflict_groups), applies));
  rep.layer("validation.parallel_share",
            ratio(static_cast<double>(v.parallel_applies), applies));
  rep.layer("validation.fallbacks", static_cast<double>(v.serial_fallbacks));
  rep.layer("validation.repairs", static_cast<double>(v.repairs));
  rep.layer("validation.sig_hit_ratio",
            ratio(static_cast<double>(v.sig_cache_hits),
                  static_cast<double>(v.sig_cache_hits + v.sig_cache_misses)));
}

void queue_layers(JobQueue* queue, Report& rep) {
  JobQueueStats q{};
  if (queue != nullptr) {
    queue->drain();
    q = queue->stats();
  }
  rep.layer("queue.consensus.wait_p99_us", q.of(JobClass::kConsensus).wait_p99_us);
  rep.layer("queue.validation.wait_p99_us",
            q.of(JobClass::kValidation).wait_p99_us);
  rep.layer("queue.consensus.run_p50_us", q.of(JobClass::kConsensus).run_p50_us);
  rep.layer("queue.shed", static_cast<double>(q.shed()));
}

/// Subscription, feed and network counters; zeros for a node without a
/// streaming read path.
struct PushCounters {
  double fanout_p99_us = 0.0;
  std::uint64_t evicted = 0;
  std::uint64_t gaps = 0;
  double msgs_per_commit = 0.0;
  double bytes_per_commit = 0.0;
};

void push_layers(const PushCounters& p, Report& rep) {
  rep.layer("subscription.fanout_p99_us", p.fanout_p99_us);
  rep.layer("subscription.evicted", static_cast<double>(p.evicted));
  rep.layer("feed.gaps", static_cast<double>(p.gaps));
  rep.layer("net.msgs_per_commit", p.msgs_per_commit);
  rep.layer("net.bytes_per_commit", p.bytes_per_commit);
}

/// acc += after - before, field by field.
void add_delta(ledger::ValidationStats& acc, const ledger::ValidationStats& after,
               const ledger::ValidationStats& before = {}) {
  acc.applies += after.applies - before.applies;
  acc.parallel_applies += after.parallel_applies - before.parallel_applies;
  acc.serial_fallbacks += after.serial_fallbacks - before.serial_fallbacks;
  acc.repairs += after.repairs - before.repairs;
  acc.conflict_groups += after.conflict_groups - before.conflict_groups;
  acc.sig_cache_hits += after.sig_cache_hits - before.sig_cache_hits;
  acc.sig_cache_misses += after.sig_cache_misses - before.sig_cache_misses;
}

// ------------------------------------------------------------- client reads

Bytes header_request(std::int64_t height) {
  ByteWriter w;
  w.u32(ledger::kClientApiVersion);
  w.u8(static_cast<std::uint8_t>(ledger::ClientRequest::kHeader));
  w.i64(height);
  return w.take();
}

Bytes proof_request(crypto::Address addr, std::int64_t height) {
  ByteWriter w;
  w.u32(ledger::kClientApiVersion);
  w.u8(static_cast<std::uint8_t>(ledger::ClientRequest::kAccountProof));
  w.u64(addr.value);
  w.i64(height);
  return w.take();
}

/// Unwrap a dispatch() answer: the payload of an ok response.
Result<Bytes> response_payload(const Bytes& response) {
  ByteReader r(response);
  const auto version = r.u32();
  const auto ok = r.u8();
  if (!version.ok() || !ok.ok() || version.value() != ledger::kClientApiVersion) {
    return make_error("nodebench.read", "malformed response envelope");
  }
  if (ok.value() != 1) {
    auto code = r.str();
    return make_error("nodebench.read", code.ok() ? code.value() : "error");
  }
  return r.bytes();
}

/// Fetch header `height` through the envelope and extend the reader's chain.
Status accept_next_header(const ledger::ClientApi& api, ledger::LightClient& reader,
                          std::int64_t height) {
  auto payload = response_payload(api.dispatch(header_request(height)));
  if (!payload.ok()) return Status::fail(payload.error().code, payload.error().message);
  auto header = ledger::BlockHeader::decode(payload.value());
  if (!header.ok()) return Status::fail(header.error().code, header.error().message);
  return reader.accept_header(header.value());
}

/// Decode a proof response and verify it against the reader's headers.
Result<ledger::AccountStatement> decode_verify(const Bytes& response,
                                               const ledger::LightClient& reader,
                                               crypto::Address expected) {
  auto payload = response_payload(response);
  if (!payload.ok()) return payload.error();
  auto proof = ledger::AccountProof::decode(payload.value());
  if (!proof.ok()) return proof.error();
  if (proof.value().address != expected) {
    return make_error("nodebench.read", "proof for another account");
  }
  return reader.verify_account(proof.value());
}

/// One verified account read: request, dispatch, decode, verify, and the
/// statement compared with the node's own state (outside the timing).
void serve_read(Tracer& tr, Report& rep, const ledger::ClientApi& api,
                const ledger::LightClient& reader, const ledger::LedgerState& state,
                crypto::Address addr, std::int64_t height) {
  const std::int64_t t0 = now_ns();
  const Bytes request = proof_request(addr, height);
  const Bytes response = tr.span(kReadDispatch, [&] { return api.dispatch(request); });
  const auto statement =
      tr.span(kReadDecodeVerify, [&] { return decode_verify(response, reader, addr); });
  rep.read_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  const bool ok = statement.ok() && statement.value().balance == state.balance(addr) &&
                  statement.value().nonce == state.nonce(addr);
  rep.ops(1, ok ? 0 : 1,
          [&] { return "read of " + addr.to_string() + " did not verify" +
              (statement.ok() ? "" : ": " + statement.error().to_string()); });
}

// ------------------------------------------------------------ node set-up

/// Construct a node `times` times, timing each construction (the previous
/// node is torn down outside the timing); setup_s reports the median and
/// only the last node runs the workload. Null when construction failed.
template <class Node, class Make>
std::unique_ptr<Node> set_up(Report& rep, int times, Make make) {
  std::unique_ptr<Node> node;
  for (int k = 0; k < times; ++k) {
    node.reset();
    const std::int64_t t0 = now_ns();
    node = make();
    rep.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!node) return nullptr;
  }
  return node;
}

std::shared_ptr<JobQueue> make_queue(std::size_t workers) {
  JobQueueConfig qc;
  qc.threads = workers;
  return std::make_shared<JobQueue>(qc);
}

ledger::LedgerState genesis_of(const Inputs& in) {
  ledger::LedgerState genesis;
  for (const auto a : in.accounts) genesis.credit(a, in.grant);
  return genesis;
}

// ------------------------------------------------------------ city_proposer

ledger::ChainConfig city_chain_config(const scenario::ScenarioEnv& env,
                                      const scenario::TraceHeader& header,
                                      std::shared_ptr<crypto::DigestLruSet> cache) {
  ledger::ChainConfig cc;
  cc.validators = env.validator_keys();
  cc.max_txs_per_block = header.max_txs_per_block;
  cc.validation.sig_cache = std::move(cache);
  return cc;
}

/// A proposing node: mempool and chain sharing one signature cache, a
/// subscription server with kCityFeeds push-fed light clients, and the
/// ClientApi facade with one reader light client. Everything inline.
struct CityNode {
  CityNode(scenario::ScenarioEnv e, const scenario::TraceHeader& header,
           std::uint64_t seed)
      : env(std::move(e)),
        network(clock, Rng(seed ^ kNetSalt)),
        chain(city_chain_config(env, header, sig_cache), env.contracts,
              std::move(env.genesis)),
        pool(ledger::MempoolConfig{.sig_cache = sig_cache}),
        server(network),
        server_node(network.add_node(
            [this](const net::Message& m) { server.handle(m); })),
        publisher(chain, server),
        api(chain, &server),
        reader({chain.config().validators, chain.genesis_hash()}) {
    server.bind(server_node);
    for (std::size_t i = 0; i < kCityFeeds; ++i) {
      ledger::SubscriptionFeedConfig fc;
      fc.light_client = {chain.config().validators, chain.genesis_hash()};
      fc.accounts = {env.avatars[i * env.avatars.size() / kCityFeeds].address()};
      auto feed = std::make_unique<ledger::SubscriptionFeed>(network, fc);
      feed->on_account = [this](const ledger::AccountStatement&,
                                const ledger::AccountProof&) { ++statements; };
      auto* fp = feed.get();
      feed->bind(network.add_node([fp](const net::Message& m) { fp->handle(m); }));
      feed->subscribe(server_node);
      feeds.push_back(std::move(feed));
    }
    network.run_until_idle();
  }
  CityNode(const CityNode&) = delete;
  CityNode& operator=(const CityNode&) = delete;

  scenario::ScenarioEnv env;
  SimClock clock;
  net::Network network;
  std::shared_ptr<crypto::DigestLruSet> sig_cache =
      std::make_shared<crypto::DigestLruSet>();
  ledger::Blockchain chain;
  ledger::Mempool pool;
  net::SubscriptionServer server;
  NodeId server_node;
  ledger::SubscriptionPublisher publisher;
  std::uint64_t statements = 0;  ///< pushed account proofs the feeds verified
  std::vector<std::unique_ptr<ledger::SubscriptionFeed>> feeds;
  ledger::ClientApi api;
  ledger::LightClient reader;
};

int drive_city(const Inputs& in, Tracer& tr, Report& rep, int& threads) {
  const auto& trace = in.trace;
  const auto& header = trace.header;
  auto node = set_up<CityNode>(rep, kCitySetups, [&]() -> std::unique_ptr<CityNode> {
    auto env = scenario::build_env(header);
    if (!env.ok() || env.value().genesis.commitment().root != header.genesis_root) {
      return nullptr;
    }
    return std::make_unique<CityNode>(std::move(env).value(), header, in.seed);
  });
  if (!node) {
    std::fprintf(stderr, "city node: environment does not match the trace\n");
    return 1;
  }
  auto& chain = node->chain;
  auto& pool = node->pool;
  auto& network = node->network;
  const auto& avatars = node->env.avatars;

  const net::NetworkStats net_before = network.stats();
  ledger::ValidationStats vstats;
  Rng exec_rng(in.seed ^ kExecSalt);
  Rng read_rng(in.seed ^ kReadSalt);
  CoreRotation cores;
  Reference reference;
  const std::int64_t t_loop = now_ns();
  for (std::uint32_t r = 0; r < trace.rounds.size(); ++r) {
    cores.next();
    rep.ref_ms.push_back(reference.run());
    tr.begin_round(r);
    const auto& txs = trace.rounds[r].txs;
    const Tick tick = static_cast<Tick>(r);
    const std::int64_t t0 = now_ns();
    std::uint64_t refused = 0;
    for (const auto& tx : txs) {
      const Status s =
          tr.span(kMempoolAdd, [&] { return pool.add(tx, chain.state(), tick); });
      if (!s.ok()) ++refused;
    }
    const auto selected = tr.span(kMempoolSelect, [&] {
      return pool.select(header.max_txs_per_block, chain.state());
    });
    const auto& proposer = node->env.validators[r % node->env.validators.size()];
    const ledger::Block block = tr.span(kChainAssemble, [&] {
      return chain.assemble(proposer, selected, tick, exec_rng);
    });
    const auto v_before = chain.validation_stats();
    const Status appended = tr.span(kChainAppend, [&] { return chain.append(block); });
    const std::int64_t t_appended = now_ns();
    add_delta(vstats, chain.validation_stats(), v_before);
    tr.span(kMempoolRemove, [&] { pool.remove_included(block.txs); });
    const auto* commitment = chain.commitment_at(r);
    const bool committed = appended.ok() && refused == 0 &&
                           block.txs.size() == txs.size() && commitment != nullptr &&
                           commitment->root == trace.rounds[r].commitment_root;
    rep.round_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    rep.ops(txs.size(), committed ? 0 : txs.size(),
            [&] { return "round " + std::to_string(r) + " missed its recorded root"; });
    if (committed) rep.committed += txs.size();

    tr.span(kPushDeliver, [&] { network.run_until_idle(); });
    std::uint64_t behind = 0;
    for (const auto& feed : node->feeds) behind += feed->next_height() != chain.height();
    rep.push_ms.push_back(static_cast<double>(now_ns() - t_appended) / 1e6);
    rep.ops(node->feeds.size(), behind,
            [&] { return "feeds missed commit " + std::to_string(r); });
    node->clock.advance();

    const std::int64_t tip = chain.height() - 1;
    const Status accepted = tr.span(
        kReadHeader, [&] { return accept_next_header(node->api, node->reader, tip); });
    rep.ops(1, accepted.ok() ? 0 : 1,
            [&] { return "reader refused header " + std::to_string(tip); });
    for (std::size_t q = 0; q < kCityReadsPerRound; ++q) {
      const auto addr = avatars[read_rng.next_below(avatars.size())].address();
      serve_read(tr, rep, node->api, node->reader, chain.state(), addr, tip);
    }
    tr.end_round();
  }
  rep.loop_s = static_cast<double>(now_ns() - t_loop) / 1e9 - rep.reference_s();
  threads = process_threads();

  // Correctness after the timed loop: invariants, feeds at the tip, no gaps.
  scenario::InvariantOptions inv;
  inv.total_supply = node->env.total_supply;
  inv.dao_contract = node->env.dao.name;
  inv.reputation_contract = node->env.reputation.name;
  inv.moderation_contract = node->env.moderation.name;
  inv.rep_min = node->env.reputation.min_score;
  inv.rep_max = node->env.reputation.max_score;
  const auto violations = scenario::check_invariants(chain.state(), inv, &pool);
  rep.ops(1, violations.empty() ? 0 : 1,
          [&] { return "invariant: " + violations.front(); });
  PushCounters push;
  for (const auto& feed : node->feeds) {
    push.gaps += feed->gaps_detected();
    const bool clean = feed->next_height() == chain.height() &&
                       feed->gaps_detected() == 0 && feed->rejected() == 0 &&
                       !feed->stale();
    rep.ops(1, clean ? 0 : 1,
            [] { return std::string("a feed ended off the tip or with gaps"); });
  }
  rep.ops(1, node->statements == 0 ? 1 : 0,
          [] { return std::string("no pushed account proof verified"); });

  if (tr.enabled()) {
    const auto sub = node->server.stats();
    const auto net_after = network.stats();
    const double commits = static_cast<double>(trace.rounds.size());
    push.fanout_p99_us = sub.fanout_p99_us;
    push.evicted = sub.evicted_slow;
    push.msgs_per_commit =
        static_cast<double>(net_after.sent - net_before.sent) / commits;
    push.bytes_per_commit =
        static_cast<double>(net_after.bytes_sent - net_before.bytes_sent) / commits;
    rep.layer("mempool.rejected",
              static_cast<double>(pool.stats().rejected_full + rep.failed));
    validation_layers(vstats, rep);
    queue_layers(nullptr, rep);
    push_layers(push, rep);
  }
  return 0;
}

// -------------------------------------------------------- transfer_follower

/// A non-proposing replica: the chain validates through the shared JobQueue
/// with a signature cache nothing has warmed, and serves ClientApi reads.
struct FollowerNode {
  FollowerNode(const Inputs& in, std::size_t workers)
      : queue(make_queue(workers)),
        chain(chain_config(in), std::make_shared<ledger::ContractRegistry>(),
              genesis_of(in)),
        api(chain),
        reader({chain.config().validators, chain.genesis_hash()}) {}
  FollowerNode(const FollowerNode&) = delete;
  FollowerNode& operator=(const FollowerNode&) = delete;

  ledger::ChainConfig chain_config(const Inputs& in) const {
    ledger::ChainConfig cc;
    cc.validators = validator_keys(derive_validators(in.seed));
    cc.max_txs_per_block = kFollowerTxsPerBlock;
    cc.validation.sig_cache = std::make_shared<crypto::DigestLruSet>();
    cc.validation.job_queue = queue;
    return cc;
  }

  std::shared_ptr<JobQueue> queue;
  ledger::Blockchain chain;
  ledger::ClientApi api;
  ledger::LightClient reader;
};

int drive_follower(const Inputs& in, std::size_t workers, Tracer& tr, Report& rep,
                   int& threads) {
  auto node = set_up<FollowerNode>(
      rep, kFollowerSetups, [&] { return std::make_unique<FollowerNode>(in, workers); });
  auto& chain = node->chain;

  ledger::ValidationStats vstats;
  const auto n = static_cast<std::uint32_t>(in.blocks.size());
  CoreRotation cores;
  Reference reference;
  const std::int64_t t_loop = now_ns();
  for (std::uint32_t h = 0; h < n; ++h) {
    cores.next();
    rep.ref_ms.push_back(reference.run());
    tr.begin_round(h);
    const std::int64_t t0 = now_ns();
    const auto v_before = chain.validation_stats();
    const Status appended =
        tr.span(kChainAppend, [&] { return chain.append(in.blocks[h]); });
    add_delta(vstats, chain.validation_stats(), v_before);
    const auto* commitment = chain.commitment_at(h);
    const bool committed = appended.ok() && commitment != nullptr &&
                           commitment->root == in.roots[h];
    rep.round_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    const std::size_t txs = in.blocks[h].txs.size();
    rep.ops(txs, committed ? 0 : txs,
            [&] { return "block " + std::to_string(h) + " missed its recorded root"; });
    if (committed) rep.committed += txs;
    tr.end_round();
  }
  rep.loop_s = static_cast<double>(now_ns() - t_loop) / 1e9 - rep.reference_s();
  threads = process_threads();

  // Once caught up, the follower serves verified reads outside the commit
  // loop: a reader follows every header, then audits random accounts.
  tr.begin_round(n);
  for (std::int64_t h = 0; h < chain.height(); ++h) {
    const Status accepted = tr.span(
        kReadHeader, [&] { return accept_next_header(node->api, node->reader, h); });
    rep.ops(1, accepted.ok() ? 0 : 1,
            [&] { return "reader refused header " + std::to_string(h); });
  }
  Rng read_rng(in.seed ^ kReadSalt);
  for (std::size_t q = 0; q < kFollowerReads; ++q) {
    const auto addr = in.accounts[read_rng.next_below(in.accounts.size())];
    serve_read(tr, rep, node->api, node->reader, chain.state(), addr,
               chain.height() - 1);
  }
  tr.end_round();

  scenario::InvariantOptions inv;
  inv.total_supply = in.grant * in.accounts.size();
  const auto violations = scenario::check_invariants(chain.state(), inv);
  rep.ops(1, violations.empty() ? 0 : 1,
          [&] { return "invariant: " + violations.front(); });

  if (tr.enabled()) {
    rep.layer("mempool.rejected", 0.0);
    validation_layers(vstats, rep);
    queue_layers(node->queue.get(), rep);
    push_layers({}, rep);
  }
  return 0;
}

// -------------------------------------------------------------- multi_world

/// The sharded node: kMultiShards shard chains whose round commits fan out
/// on the JobQueue, sealed under a beacon per round.
struct MultiNode {
  MultiNode(const Inputs& in, std::size_t workers)
      : validators(derive_validators(in.seed)),
        queue(make_queue(workers)),
        ledger(shard_config(in), genesis_of(in)) {}
  MultiNode(const MultiNode&) = delete;
  MultiNode& operator=(const MultiNode&) = delete;

  ledger::ShardConfig shard_config(const Inputs& in) const {
    ledger::ShardConfig sc;
    sc.num_shards = kMultiShards;
    sc.validators = validator_keys(validators);
    sc.max_txs_per_block = kMultiMaxTxsPerShardBlock;
    sc.seed = in.seed;
    sc.validation.sig_cache = std::make_shared<crypto::DigestLruSet>();
    sc.validation.job_queue = queue;
    return sc;
  }

  std::vector<crypto::Wallet> validators;
  std::shared_ptr<JobQueue> queue;
  ledger::ShardedLedger ledger;
};

int drive_multi(const Inputs& in, std::size_t workers, Tracer& tr, Report& rep,
                int& threads) {
  auto node = set_up<MultiNode>(
      rep, kMultiSetups, [&] { return std::make_unique<MultiNode>(in, workers); });
  auto& ledger = node->ledger;

  Rng read_rng(in.seed ^ kReadSalt);
  std::vector<std::uint64_t> proven(kMultiShards, 0);
  std::uint64_t refused_total = 0;
  const auto n = static_cast<std::uint32_t>(in.rounds.size());
  CoreRotation cores;
  Reference reference;
  const std::int64_t t_loop = now_ns();
  for (std::uint32_t r = 0; r < n; ++r) {
    cores.next();
    rep.ref_ms.push_back(reference.run());
    tr.begin_round(r);
    const auto& txs = in.rounds[r];
    const std::int64_t t0 = now_ns();
    std::uint64_t refused = 0;
    for (const auto& tx : txs) {
      const Status s = tr.span(kShardSubmit, [&] { return ledger.submit(tx); });
      if (!s.ok()) ++refused;
    }
    const auto& proposer = node->validators[r % node->validators.size()];
    const auto beacon = tr.span(kShardCommitRound, [&] {
      return ledger.commit_round(proposer, static_cast<Tick>(r + 1));
    });
    bool drained = true;
    for (std::uint32_t s = 0; s < kMultiShards; ++s) {
      drained = drained && ledger.mempool(s).empty();
    }
    const bool committed = beacon.ok() && refused == 0 && drained &&
                           beacon.value().beacon_root == in.roots[r];
    rep.round_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    rep.ops(txs.size(), committed ? 0 : txs.size(),
            [&] { return "round " + std::to_string(r) + " missed its beacon root"; });
    refused_total += refused;
    if (!committed) {
      tr.end_round();
      continue;
    }
    rep.committed += txs.size();

    // Receipt proofs for this round's locks, as a relayer would fetch them.
    for (std::uint32_t s = 0; s < kMultiShards; ++s) {
      for (; proven[s] < ledger.receipt_count(s); ++proven[s]) {
        const auto bundle = tr.span(kShardProveReceipt,
                                    [&] { return ledger.prove_receipt(s, proven[s]); });
        const bool ok = bundle.ok() &&
                        ledger::CrossShardReceipt::decode(bundle.value().receipt).ok();
        rep.ops(1, ok ? 0 : 1, [] { return std::string("receipt proof failed"); });
      }
    }
    // Composed account reads against the round's beacon root.
    const auto& beacon_root = beacon.value().beacon_root;
    for (std::size_t q = 0; q < kMultiReadsPerRound; ++q) {
      const auto addr = in.accounts[read_rng.next_below(in.accounts.size())];
      const std::int64_t t_read = now_ns();
      const auto proof =
          tr.span(kShardProveAccount, [&] { return ledger.prove_account(addr); });
      const Status verified = tr.span(kReadDecodeVerify, [&] {
        if (!proof.ok()) return Status::fail(proof.error().code, proof.error().message);
        return ledger::verify_sharded_account_proof(proof.value(), beacon_root);
      });
      rep.read_us.push_back(static_cast<double>(now_ns() - t_read) / 1e3);
      const auto& state = ledger.state(ledger::shard_of(addr, kMultiShards));
      const bool ok = verified.ok() &&
                      proof.value().account.statement.balance == state.balance(addr);
      rep.ops(1, ok ? 0 : 1,
              [&] { return "composed read of " + addr.to_string() + " failed"; });
    }
    tr.end_round();
  }
  rep.loop_s = static_cast<double>(now_ns() - t_loop) / 1e9 - rep.reference_s();
  threads = process_threads();

  scenario::InvariantOptions inv;
  inv.total_supply = in.grant * in.accounts.size();
  const auto violations = scenario::check_sharded_invariants(ledger, inv);
  rep.ops(1, violations.empty() ? 0 : 1,
          [&] { return "invariant: " + violations.front(); });

  if (tr.enabled()) {
    std::uint64_t rejected_full = 0;
    ledger::ValidationStats vstats;
    for (std::uint32_t s = 0; s < kMultiShards; ++s) {
      rejected_full += ledger.mempool(s).stats().rejected_full;
      add_delta(vstats, ledger.shard(s).validation_stats());
    }
    rep.layer("mempool.rejected", static_cast<double>(rejected_full + refused_total));
    validation_layers(vstats, rep);
    queue_layers(node->queue.get(), rep);
    push_layers({}, rep);
  }
  return 0;
}

}  // namespace

int drive(const Inputs& in, bool trace, std::size_t queue_workers,
          const std::string& spans_path) {
  Tracer tr(trace);
  Report rep;
  int threads = 0;
  int code = 1;
  switch (in.workload) {
    case Workload::kCityProposer:
      code = drive_city(in, tr, rep, threads);
      break;
    case Workload::kTransferFollower:
      code = drive_follower(in, queue_workers, tr, rep, threads);
      break;
    case Workload::kMultiWorld:
      code = drive_multi(in, queue_workers, tr, rep, threads);
      break;
  }
  if (code != 0) return code;
  if (tr.enabled()) {
    span_layers(tr, rep);
    if (!spans_path.empty()) tr.write(spans_path);
  }
  print_report(in, trace, rep, threads);
  return rep.failed == 0 ? 0 : 3;
}

}  // namespace nodebench
