// Distributed sample sort — the classic irregular (Alltoallv) complete
// exchange workload.
//
//   ./sample_sort [--dims=8,8] [--keys=256] [--seed=42]
//
// Each of the N torus nodes starts with `keys` random 64-bit keys.
// Classic sample sort: every node sorts locally, contributes samples,
// splitters are chosen from the gathered sample, every key is routed to
// the bucket (node) owning its splitter range — one irregular all-to-all
// personalized exchange (Alltoallv), executed with the Suh-Shin schedule
// on the step kernel: each node's payload for a destination is the
// std::vector of its keys bound there — and buckets sort locally. We
// verify the global order and that no key was lost.
#include <algorithm>
#include <iostream>
#include <vector>

#include "core/payload_exchange.hpp"
#include "core/step_program.hpp"
#include "util/cli.hpp"
#include "util/prng.hpp"

int main(int argc, char** argv) {
  using namespace torex;
  try {
    const CliFlags flags = CliFlags::parse(argc, argv, {"dims", "keys", "seed"});
    const auto dims64 = flags.get_int_list("dims", {8, 8});
    const std::int64_t keys_per_node = flags.get_int("keys", 256);
    const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    std::vector<std::int32_t> dims(dims64.begin(), dims64.end());

    const TorusShape shape(dims);
    const SuhShinAape algo(shape);
    const Rank N = shape.num_nodes();
    std::cout << "sample sort of " << N * keys_per_node << " keys over a "
              << shape.to_string() << " torus\n";

    // 1. Generate and locally sort.
    SplitMix64 rng(seed);
    std::vector<std::vector<std::uint64_t>> local(static_cast<std::size_t>(N));
    for (auto& keys : local) {
      keys.reserve(static_cast<std::size_t>(keys_per_node));
      for (std::int64_t i = 0; i < keys_per_node; ++i) keys.push_back(rng.next());
      std::sort(keys.begin(), keys.end());
    }

    // 2. Regular sampling: each node contributes N evenly spaced samples;
    // splitter i is the (i+1)N-th element of the sorted sample.
    std::vector<std::uint64_t> sample;
    for (const auto& keys : local) {
      for (Rank s = 0; s < N; ++s) {
        sample.push_back(keys[static_cast<std::size_t>(
            static_cast<std::int64_t>(s) * keys_per_node / N)]);
      }
    }
    std::sort(sample.begin(), sample.end());
    std::vector<std::uint64_t> splitters;  // N-1 of them
    for (Rank i = 1; i < N; ++i) {
      splitters.push_back(sample[static_cast<std::size_t>(i) * static_cast<std::size_t>(N)]);
    }

    // 3. Route every key to its bucket with one irregular exchange:
    // rows[p][b] holds the keys node p sends to bucket b.
    using Keys = std::vector<std::uint64_t>;
    std::vector<std::vector<Keys>> rows(static_cast<std::size_t>(N),
                                        std::vector<Keys>(static_cast<std::size_t>(N)));
    for (Rank p = 0; p < N; ++p) {
      for (std::uint64_t key : local[static_cast<std::size_t>(p)]) {
        const auto it = std::upper_bound(splitters.begin(), splitters.end(), key);
        const auto bucket = static_cast<std::size_t>(it - splitters.begin());
        rows[static_cast<std::size_t>(p)][bucket].push_back(key);
      }
    }
    const auto delivered = exchange_payloads_pooled(algo, StepProgram(algo), std::move(rows));

    // 4. Local sort per bucket, then verify the global order.
    std::int64_t total = 0;
    std::uint64_t previous_max = 0;
    bool sorted = true;
    std::int64_t largest_bucket = 0;
    for (Rank b = 0; b < N; ++b) {
      Keys bucket;
      for (const Keys& keys : delivered[static_cast<std::size_t>(b)]) {
        bucket.insert(bucket.end(), keys.begin(), keys.end());
      }
      std::sort(bucket.begin(), bucket.end());
      total += static_cast<std::int64_t>(bucket.size());
      largest_bucket = std::max(largest_bucket, static_cast<std::int64_t>(bucket.size()));
      if (!bucket.empty()) {
        sorted = sorted && bucket.front() >= previous_max;
        previous_max = bucket.back();
      }
    }

    const bool complete = total == N * keys_per_node;
    std::cout << (sorted && complete ? "globally sorted" : "SORT FAILED") << ": " << total
              << " keys across " << N << " buckets (largest bucket " << largest_bucket
              << ", perfect balance " << keys_per_node << ")\n";
    std::cout << "communication: one irregular exchange over " << algo.total_steps()
              << " steps\n";
    return sorted && complete ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
