#include "core/checkpoint.hpp"

#include <filesystem>
#include <limits>
#include <map>

#include "common/kernels.hpp"

namespace ctj::core {

void add_meta_chunk(io::ContainerWriter& out, const std::string& type) {
  std::map<std::string, std::string> meta;
  meta["format"] = "ctjs";
  meta["type"] = type;
  meta["simd_level"] = kern::simd_level_name();
  out.add_chunk(io::tags::kMeta, io::encode_meta(meta));
}

void save_scheme(const DqnScheme& scheme, const std::string& path) {
  io::ContainerWriter out;
  add_meta_chunk(out, "model");
  scheme.save_state(out);
  out.write_file(path);
}

void load_scheme(DqnScheme& scheme, const std::string& path) {
  const io::ContainerReader in = io::ContainerReader::from_file(path);
  scheme.load_state(in);
}

DqnScheme::Config read_scheme_config(const std::string& path) {
  const io::ContainerReader in = io::ContainerReader::from_file(path);
  return DqnScheme::read_config(in);
}

void load_policy(DqnScheme& scheme, const std::string& path) {
  const io::ContainerReader in = io::ContainerReader::from_file(path);
  scheme.agent().load_policy(in);
}

void write_train_progress(io::ContainerWriter& out,
                          const TrainProgress& progress,
                          const TrainerConfig& config) {
  io::ByteWriter w;
  w.u8(progress.mode);
  w.u64(progress.replicas);
  w.u64(progress.slots_trained);
  w.u8(progress.early_stopped ? 1 : 0);
  w.u64(config.reward_window);
  w.u8(config.target_mean_reward ? 1 : 0);
  w.f64(config.target_mean_reward.value_or(0.0));
  progress.window.encode(w);
  out.add_chunk(io::tags::kTrainProgress, w.take());
}

TrainProgress read_train_progress(const io::ContainerReader& in,
                                  std::uint8_t mode, std::uint64_t replicas,
                                  const TrainerConfig& config) {
  const auto mismatch = [](const std::string& what) -> io::IoError {
    return io::IoError(io::ErrorKind::kStateMismatch,
                       "checkpoint trainer state differs in " + what);
  };
  io::ByteReader r(in.chunk(io::tags::kTrainProgress));
  TrainProgress progress;
  progress.mode = r.u8();
  if (progress.mode != mode) throw mismatch("training mode");
  progress.replicas = r.u64();
  if (progress.replicas != replicas) throw mismatch("replica count");
  progress.slots_trained = r.u64();
  progress.early_stopped = r.u8() != 0;
  if (r.u64() != config.reward_window) throw mismatch("reward_window");
  const bool has_target = r.u8() != 0;
  const double target = r.f64();
  if (has_target != config.target_mean_reward.has_value() ||
      (has_target && target != *config.target_mean_reward)) {
    throw mismatch("target_mean_reward");
  }
  progress.window =
      RewardWindow::decode(r, config.reward_window, config.reward_window,
                           io::ErrorKind::kBadPayload);
  r.expect_end();
  return progress;
}

void write_jammer_config(io::ContainerWriter& out,
                         const jammer::JammerSpec& spec) {
  if (spec.is_kernel()) return;
  io::ByteWriter w;
  spec.encode(w);
  out.add_chunk(io::tags::kJammerCfg, w.take());
}

void check_jammer_config(const io::ContainerReader& in,
                         const jammer::JammerSpec& spec) {
  const auto mismatch = [](const std::string& what) -> io::IoError {
    return io::IoError(io::ErrorKind::kStateMismatch,
                       "checkpoint adversary differs: " + what);
  };
  if (spec.is_kernel()) {
    if (in.has_chunk(io::tags::kJammerCfg)) {
      throw mismatch(
          "checkpoint was trained against a behavioural jammer, the live "
          "environment samples the closed-form kernel");
    }
    return;
  }
  if (!in.has_chunk(io::tags::kJammerCfg)) {
    throw mismatch(
        "checkpoint has no JAMRCFG chunk, the live environment runs \"" +
        spec.archetype + "\"");
  }
  io::ByteReader r(in.chunk(io::tags::kJammerCfg));
  const jammer::JammerSpec stored = jammer::JammerSpec::decode(r);
  r.expect_end();
  if (stored != spec) {
    throw mismatch("checkpoint ran \"" + stored.archetype +
                   "\", the live environment runs \"" + spec.archetype +
                   "\" (or the tunables differ)");
  }
}

bool should_resume_checkpoint(const TrainerConfig& config) {
  if (!config.checkpoint || !config.checkpoint->resume) return false;
  std::error_code ec;
  return std::filesystem::exists(config.checkpoint->path, ec);
}

std::size_t next_checkpoint_after(std::size_t slots, std::size_t every) {
  if (every == 0) return std::numeric_limits<std::size_t>::max();
  return (slots / every + 1) * every;
}

}  // namespace ctj::core
