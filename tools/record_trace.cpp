// Golden-trace recorder: records a named scenario (a catalog mix or
// "multi_world:<n>") and writes the trace file the regression tests replay
// (tests/data/*.trace). Prints the per-class generator stats and the final
// root so the expected constants in scenario_test.cpp can be refreshed
// alongside the file.
//
//   record_trace <mix> <seed> <avatars> <rounds> <txs_per_round> <out.trace>
//
// After writing, the trace is read back and replayed through a fresh stack
// as a self-check: a trace that does not round-trip is not written home.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "scenario/harness.h"

int main(int argc, char** argv) {
  if (argc != 7) {
    std::fprintf(stderr,
                 "usage: %s <mix> <seed> <avatars> <rounds> <txs_per_round> "
                 "<out.trace>\n  mixes:",
                 argv[0]);
    for (const auto& name : mv::scenario::mix_catalog()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, " multi_world:<n>\n");
    return 2;
  }
  mv::scenario::ScenarioConfig config;
  config.mix = argv[1];
  config.seed = std::strtoull(argv[2], nullptr, 10);
  config.avatars = std::strtoull(argv[3], nullptr, 10);
  config.rounds = static_cast<std::uint32_t>(std::strtoul(argv[4], nullptr, 10));
  config.txs_per_round =
      static_cast<std::uint32_t>(std::strtoul(argv[5], nullptr, 10));
  const std::string out_path = argv[6];

  auto recorded = mv::scenario::record(config);
  if (!recorded.ok()) {
    std::fprintf(stderr, "record failed: %s\n",
                 recorded.error().to_string().c_str());
    return 1;
  }
  const auto& rec = recorded.value();
  if (!rec.run.violations.empty()) {
    for (const auto& v : rec.run.violations) {
      std::fprintf(stderr, "invariant violation: %s\n", v.c_str());
    }
    return 1;
  }
  if (auto saved = mv::scenario::save_trace(rec.trace, out_path); !saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.error().to_string().c_str());
    return 1;
  }

  // Round-trip self-check: load the file we just wrote and replay it.
  auto loaded = mv::scenario::load_trace(out_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "reload failed: %s\n",
                 loaded.error().to_string().c_str());
    return 1;
  }
  auto replayed = mv::scenario::replay(loaded.value());
  if (!replayed.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 replayed.error().to_string().c_str());
    return 1;
  }
  if (replayed.value().mismatched_blocks != 0) {
    std::fprintf(stderr, "replay diverged on %zu blocks\n",
                 replayed.value().mismatched_blocks);
    return 1;
  }

  const auto& g = rec.generated;
  std::printf("trace      %s (%zu bytes)\n", out_path.c_str(),
              rec.trace.encode().size());
  std::printf("scenario   %s seed=%llu avatars=%llu rounds=%zu txs=%zu\n",
              config.mix.c_str(),
              static_cast<unsigned long long>(config.seed),
              static_cast<unsigned long long>(config.avatars),
              rec.trace.rounds.size(), rec.trace.total_txs());
  std::printf(
      "classes    transfer=%llu audit=%llu mint=%llu list=%llu buy=%llu "
      "cancel=%llu move=%llu\n",
      static_cast<unsigned long long>(g.transfers),
      static_cast<unsigned long long>(g.audits),
      static_cast<unsigned long long>(g.mints),
      static_cast<unsigned long long>(g.lists),
      static_cast<unsigned long long>(g.buys),
      static_cast<unsigned long long>(g.cancels),
      static_cast<unsigned long long>(g.token_moves));
  std::printf(
      "           join=%llu propose=%llu vote=%llu finalize=%llu "
      "report=%llu resolve=%llu rate=%llu\n",
      static_cast<unsigned long long>(g.joins),
      static_cast<unsigned long long>(g.proposals),
      static_cast<unsigned long long>(g.votes),
      static_cast<unsigned long long>(g.finalizes),
      static_cast<unsigned long long>(g.reports),
      static_cast<unsigned long long>(g.resolves),
      static_cast<unsigned long long>(g.ratings));
  std::printf("scams      scam_txs=%llu wash_trades=%llu rug_pulls=%llu\n",
              static_cast<unsigned long long>(g.scam_txs),
              static_cast<unsigned long long>(g.wash_trades),
              static_cast<unsigned long long>(g.rug_pulls));
  std::printf("worlds     cross_transfers=%llu\n",
              static_cast<unsigned long long>(g.cross_transfers));
  std::printf("final_root %s\n",
              mv::crypto::to_hex(
                  rec.trace.rounds.back().commitment_root).c_str());
  std::printf("wall       %.2fs record, %.2fs replay\n", rec.run.wall_seconds,
              replayed.value().wall_seconds);
  return 0;
}
