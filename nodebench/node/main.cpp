// nodebench: generator and node phases of the node benchmark (see run.py).
//
//   nodebench gen  <workload> <seed> <inputs-path>
//   nodebench node <inputs-path> <trace 0|1> <queue-workers> [<spans-path>]
//
// `gen` writes the encoded inputs for one (workload, seed); `node` replays
// them and prints one JSON report line. Both exit non-zero on any failure.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "node/nodebench.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: nodebench gen <workload> <seed> <inputs-path>\n"
               "       nodebench node <inputs-path> <trace 0|1> <queue-workers> "
               "[<spans-path>]\n");
  return 2;
}

int run_gen(const std::string& workload, const std::string& seed,
            const std::string& path) {
  const auto w = nodebench::parse_workload(workload);
  if (!w.ok()) {
    std::fprintf(stderr, "%s\n", w.error().to_string().c_str());
    return 2;
  }
  const auto inputs = nodebench::generate(w.value(), std::stoull(seed));
  if (!inputs.ok()) {
    std::fprintf(stderr, "generate: %s\n", inputs.error().to_string().c_str());
    return 1;
  }
  const auto bytes = inputs.value().encode();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out.good() ? 0 : 1;
}

int run_node(const std::string& path, const std::string& trace,
             const std::string& workers, const std::string& spans_path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  const nodebench::Bytes bytes((std::istreambuf_iterator<char>(file)),
                               std::istreambuf_iterator<char>());
  // Loading and decoding the inputs is not part of any metric.
  const auto inputs = nodebench::Inputs::decode(bytes);
  if (!inputs.ok()) {
    std::fprintf(stderr, "inputs: %s\n", inputs.error().to_string().c_str());
    return 1;
  }
  return nodebench::drive(inputs.value(), trace == "1", std::stoul(workers),
                          spans_path);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "gen" && argc == 5) {
    return run_gen(argv[2], argv[3], argv[4]);
  }
  if (argc >= 2 && std::string(argv[1]) == "node" && (argc == 5 || argc == 6)) {
    return run_node(argv[2], argv[3], argv[4], argc == 6 ? argv[5] : "");
  }
  return usage();
}
