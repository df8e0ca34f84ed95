// Training-throughput bench: train-slots/sec of the replica-batched DQN
// trainer (core::train_batched) on the paper-sized network, one thread.
//
// Writes BENCH_train.json. "host_cpus" records the hardware concurrency of
// the machine that produced the record, so records from different hosts
// can be told apart; the trainer itself is single-threaded.
#include <algorithm>
#include <cstddef>
#include <iostream>
#include <thread>

#include "bench_util.hpp"
#include "core/rl_fh.hpp"
#include "core/trainer.hpp"

int main() {
  using namespace ctj;
  using namespace ctj::core;

  bench::BenchReport report("train");
  const std::size_t host_cpus = std::thread::hardware_concurrency();

  DqnScheme::Config scheme_config;  // paper-sized network: 24 → 45 → 45 → 160
  scheme_config.seed = 23;
  auto env_config = EnvironmentConfig::defaults();
  env_config.seed = 7;

  constexpr std::size_t kReplicas = 32;
  std::size_t slots = static_cast<std::size_t>(16000 * bench::bench_scale());
  slots = std::max(kReplicas, slots / kReplicas * kReplicas);

  DqnScheme scheme(scheme_config);
  TrainerConfig config;
  config.max_slots = slots;
  config.reward_window = 2000;
  const TrainingStats stats =
      train_batched(scheme, env_config, config, kReplicas);
  const double rate = stats.wall_seconds > 0.0
                          ? static_cast<double>(stats.slots_trained) /
                                stats.wall_seconds
                          : 0.0;

  std::cout << "train_batched (" << stats.slots_trained << " slots, "
            << kReplicas << " replicas, 1 thread, host_cpus " << host_cpus
            << "): " << rate << " slots/s\n";

  report.add_slots(stats.slots_trained);
  report.set_metric("train_slots_per_sec_batched", rate);
  report.set_metric("host_cpus", host_cpus);
  report.write();
  return 0;
}
