// Checkpoint assembly: the glue between the CTJS container (src/io) and the
// training stack (DqnScheme + environment + trainer loop).
//
// A model checkpoint written by save_scheme() or by the trainer holds the
// scheme Config (SCHMCFG), its dynamic state (SCHMST), the whole agent
// (networks, optimizer, replay ring, RNG, counters) and a META chunk with
// advisory provenance keys. Trainer checkpoints add ENVSTATE/OBSWIN/TRAINPRG
// so a killed run resumes bit-identically (see trainer.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "core/rl_fh.hpp"
#include "core/trainer.hpp"
#include "io/container.hpp"
#include "jammer/registry.hpp"

namespace ctj::core {

/// Append the standard META chunk: `format=ctjs`, `type=<type>` and
/// `simd_level=<active kernel level>`. simd_level is advisory only — a
/// checkpoint written under one SIMD level loads under any (all state is
/// plain f64; the kernels only change how fast it is computed).
void add_meta_chunk(io::ContainerWriter& out, const std::string& type);

/// Write a standalone model checkpoint (META + full scheme state) to `path`
/// atomically (temp file + rename).
void save_scheme(const DqnScheme& scheme, const std::string& path);

/// Restore a scheme from a checkpoint written by save_scheme() or the
/// trainer. The stored Config must equal the scheme's (io::IoError
/// kStateMismatch otherwise); on any failure the scheme is unchanged.
void load_scheme(DqnScheme& scheme, const std::string& path);

/// Decode the DqnScheme::Config stored in a checkpoint, so a matching
/// scheme can be constructed from the file alone (`ctj_cli eval --model`).
DqnScheme::Config read_scheme_config(const std::string& path);

/// Load only the online network into the scheme — a frozen policy for
/// deployment/eval; optimizer, replay and RNG state stay untouched. The
/// target net is synced to the loaded online net.
void load_policy(DqnScheme& scheme, const std::string& path);

/// The training loop's own mutable state, as stored in the TRAINPRG chunk.
/// Shared by both trainers: mode 0 = sequential train(), 1 =
/// train_batched(). Mode 2 belonged to a retired parallel trainer; such
/// checkpoints are rejected as a mode mismatch.
struct TrainProgress {
  std::uint8_t mode = 0;
  std::uint64_t replicas = 1;
  std::uint64_t slots_trained = 0;
  bool early_stopped = false;
  // The sliding window and its running sum. The sum is serialized as the
  // raw double (not recomputed on load): the incremental add/sub stream
  // differs from a fresh summation in floating point, and bit-identical
  // resume requires the exact value the uninterrupted run would carry.
  double window_sum = 0.0;
  std::deque<double> window;
};

/// Append the TRAINPRG chunk (progress + the config fields a resume must
/// match: reward_window and target_mean_reward).
void write_train_progress(io::ContainerWriter& out,
                          const TrainProgress& progress,
                          const TrainerConfig& config);

/// Decode and validate the TRAINPRG chunk: mode, replica count,
/// reward_window and target_mean_reward must all match (io::IoError
/// kStateMismatch otherwise).
TrainProgress read_train_progress(const io::ContainerReader& in,
                                  std::uint8_t mode, std::uint64_t replicas,
                                  const TrainerConfig& config);

/// Append the JAMRCFG chunk naming the adversary the environment competes
/// against. No-op for the closed-form "kernel" sentinel, so kernel-mode
/// checkpoints keep their pre-zoo chunk layout.
void write_jammer_config(io::ContainerWriter& out,
                         const jammer::JammerSpec& spec);

/// Validate a checkpoint's adversary against the live environment's spec:
/// the JAMRCFG chunk must be present exactly when the spec is behavioural,
/// and must decode equal to it — resuming a run against a different
/// adversary is a state mismatch, not a silent behaviour change (throws
/// io::IoError kStateMismatch).
void check_jammer_config(const io::ContainerReader& in,
                         const jammer::JammerSpec& spec);

/// True when the config asks for resume and the checkpoint file exists.
bool should_resume_checkpoint(const TrainerConfig& config);

/// The slot count at which the next periodic checkpoint is due (SIZE_MAX
/// when periodic checkpointing is off).
std::size_t next_checkpoint_after(std::size_t slots, std::size_t every);

}  // namespace ctj::core
