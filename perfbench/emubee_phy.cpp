// emubee_phy: a seeded stream of designed ZigBee packets emulated through
// one warm-start EmuBeeEmulator, each judged by assess_fidelity.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "phy/convolutional.hpp"
#include "phy/emulation.hpp"
#include "phy/ofdm.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ctj;

// Packets per timed chunk; each carries 16..64 ZigBee symbols (an 8..32-byte
// PSDU at two symbols per byte), lengths and symbols drawn from the seed.
// The rate is the median over chunks.
constexpr std::size_t kPackets = 16;
constexpr std::size_t kChunksPerRound = 16;
constexpr std::size_t kMinSymbols = 16;
constexpr std::size_t kMaxSymbols = 64;
// A packet must decode without symbol errors and with a chip error rate
// below this bound (600 seeded packets read 0.10 on average, 0.13 at most).
constexpr double kMaxChipErrorRate = 0.2;

using Packets = std::vector<std::vector<std::size_t>>;

Packets draw_packets(Rng& rng) {
  Packets out(kPackets);
  for (auto& p : out) {
    p.resize(kMinSymbols + rng.index(kMaxSymbols - kMinSymbols + 1));
    for (std::size_t& s : p) s = rng.index(16);
  }
  return out;
}

// The data-subcarrier targets emulate() quantizes (Eq. 1), for the mirror
// alpha search.
phy::IqBuffer targets_of(const phy::IqBuffer& designed) {
  phy::IqBuffer padded = designed;
  padded.resize((padded.size() + phy::Ofdm::kFftSize - 1) /
                    phy::Ofdm::kFftSize * phy::Ofdm::kFftSize,
                phy::Cplx(0.0, 0.0));
  phy::IqBuffer spectrum, targets;
  for (std::size_t b = 0; b < padded.size(); b += phy::Ofdm::kFftSize) {
    phy::Ofdm::symbol_spectrum_into(
        std::span<const phy::Cplx>(padded.data() + b, phy::Ofdm::kFftSize),
        spectrum);
    for (const int sc : phy::Ofdm::data_subcarriers()) {
      targets.push_back(spectrum[phy::Ofdm::bin_of(sc)]);
    }
  }
  return targets;
}

// Emulate and judge one chunk of packets, timed as symbols/s. A traced
// chunk then times the alpha search and the Viterbi decode on the same
// packets through their public entry points, with `search` mirroring the
// emulator's warm-start state.
void chunk(const Packets& stream, const phy::EmuBeeEmulator& emulator,
           ChunkTimer& timer, Tracer* tr, phy::AlphaSearch& search,
           PhaseResult& out) {
  std::size_t symbols = 0;
  std::vector<phy::FidelityReport> reports;
  std::vector<phy::IqBuffer> designed_packets;
  std::vector<phy::Bits> payloads;
  timer.start();
  for (const auto& syms : stream) {
    phy::FidelityReport fid;
    {
      Scope packet(tr, "emubee.packet");
      phy::IqBuffer designed;
      {
        Scope s(tr, "phy.design");
        designed = phy::design_zigbee_waveform(syms);
      }
      phy::EmulationResult result;
      {
        Scope s(tr, "phy.emulate");
        result = emulator.emulate(designed);
      }
      {
        Scope s(tr, "phy.fidelity");
        fid = phy::assess_fidelity(result, syms);
      }
      if (tr != nullptr) {
        designed_packets.push_back(std::move(designed));
        payloads.push_back(std::move(result.payload_bits));
      }
    }
    symbols += syms.size();
    reports.push_back(fid);
  }
  timer.stop(static_cast<double>(symbols));
  for (const phy::FidelityReport& fid : reports) {
    out.check(fid.symbol_error_rate == 0.0 &&
                  fid.chip_error_rate < kMaxChipErrorRate,
              "emubee_phy: packet SER " + std::to_string(fid.symbol_error_rate) +
                  " CER " + std::to_string(fid.chip_error_rate));
  }
  if (tr == nullptr) return;

  // Stages emulate() runs internally: the warm-start alpha search (Eq. 2)
  // and one batched Viterbi decode of the packet's OFDM symbols.
  Scope root(tr, "emubee.stages");
  for (std::size_t i = 0; i < designed_packets.size(); ++i) {
    const phy::IqBuffer targets = targets_of(designed_packets[i]);
    {
      Scope s(tr, "phy.alpha_solve");
      search.solve(targets);
    }
    const std::size_t per_symbol = 144;  // rate-1/2 info bits per OFDM symbol
    const std::size_t count = payloads[i].size() / per_symbol;
    phy::Bits coded;
    for (std::size_t b = 0; b < count; ++b) {
      const phy::Bits c = phy::ConvolutionalCode::encode(
          std::span<const std::uint8_t>(payloads[i].data() + b * per_symbol,
                                        per_symbol));
      coded.insert(coded.end(), c.begin(), c.end());
    }
    Scope s(tr, "phy.viterbi_decode");
    phy::ConvolutionalCode::decode_batch(coded, count);
  }
}

class EmubeePhy final : public Phase {
 public:
  explicit EmubeePhy(const RunOptions& opt) : rng_(opt.seed ^ 0xE3BEEULL) {
    auto made = timed_setup(kSetupReps, out_.setup_s, [] {
      return std::make_pair(std::make_unique<phy::EmuBeeEmulator>(),
                            std::make_unique<phy::EmuBeeEmulator>());
    });
    emulator_ = std::move(made.first);
    traced_emulator_ = std::move(made.second);
  }

  void round(Tracer* tracer) override {
    for (std::size_t c = 0; c < kChunksPerRound; ++c) {
      const Packets stream = draw_packets(rng_);
      chunk(stream, *emulator_, timer_, nullptr, search_, out_);
      if (tracer != nullptr) {
        chunk(stream, *traced_emulator_, traced_timer_, tracer, search_, out_);
      }
    }
    timer_.release();
    traced_timer_.release();
  }

  void finish(Tracer* tracer) override;

 private:
  Rng rng_;
  // One warm-start emulator for the whole stream (and one for its traced
  // twin, which sees the same packets).
  std::unique_ptr<phy::EmuBeeEmulator> emulator_;
  std::unique_ptr<phy::EmuBeeEmulator> traced_emulator_;
  phy::AlphaSearch search_;
  ChunkTimer timer_;
  ChunkTimer traced_timer_;
};

void EmubeePhy::finish(Tracer* tracer) {
  const double rate = median(timer_.rates());
  out_.e2e.push_back({"emubee_symbols_per_sec", rate, "symbols/s"});
  out_.raw.push_back({"emubee_symbols_per_sec", median(timer_.raw_rates()),
                      "symbols/s"});
  out_.speeds = timer_.speeds();
  if (tracer == nullptr) return;

  const auto agg = aggregate(tracer->spans());
  const auto mean = [&](const char* name) {
    const auto it = agg.find(name);
    return it == agg.end() ? 0.0 : it->second.mean_ns();
  };
  auto& L = out_.layer;
  L.push_back({"phy.design_us", mean("phy.design") * 1e-3, "us"});
  L.push_back({"phy.emulate_ms", mean("phy.emulate") * 1e-6, "ms"});
  L.push_back({"phy.fidelity_us", mean("phy.fidelity") * 1e-3, "us"});
  L.push_back({"phy.alpha_solve_us", mean("phy.alpha_solve") * 1e-3, "us"});
  L.push_back({"phy.viterbi_decode_us", mean("phy.viterbi_decode") * 1e-3, "us"});
  L.push_back({"phy.alpha_cold_solves",
               static_cast<double>(search_.cold_solves()), "count"});
  L.push_back({"trace.overhead_ratio.emubee",
               median(traced_timer_.rates()) / rate, "ratio"});
}

}  // namespace

std::unique_ptr<Phase> emubee_phy_phase(const RunOptions& opt) {
  return std::make_unique<EmubeePhy>(opt);
}

}  // namespace perfbench
