#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

// ---------------------------------------------------------------- tracing

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans.at(static_cast<std::size_t>(s.parent));
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, SpanStats> aggregate(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanStats& s = out[spans[i].name];
    ++s.count;
    s.total_ns += spans[i].end_ns - spans[i].start_ns;
    s.self_ns += self[i];
  }
  return out;
}

namespace {
// Innermost open span per thread. One Tracer is live per process, so a
// plain thread_local stack is enough.
thread_local std::vector<std::int32_t> open_stack;
}  // namespace

std::int32_t Tracer::open(const char* name) {
  const std::int32_t parent = open_stack.empty() ? -1 : open_stack.back();
  std::int32_t id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, 0, 0, parent});
  }
  open_stack.push_back(id);
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].start_ns = t;
  return id;
}

void Tracer::close(std::int32_t id) {
  const std::int64_t t = now_ns();
  if (!open_stack.empty() && open_stack.back() == id) open_stack.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end_ns = t;
}

void Tracer::count(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_[name] += value;
}

double Tracer::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  for (const Span& s : spans_) {
    os << s.name << ' ' << s.start_ns << ' ' << s.end_ns << ' ' << s.parent
       << '\n';
  }
  char buf[64];
  for (const auto& [name, value] : counters_) {
    std::snprintf(buf, sizeof buf, "%.17g", value);
    os << "# counter " << name << ' ' << buf << '\n';
  }
  return static_cast<bool>(os);
}

// ------------------------------------------------------------ statistics

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {
// 1-based nearest rank ceil(p·n/100), robust to p·n/100 landing a rounding
// error above an integer.
std::size_t nearest_rank(double p, std::size_t n) {
  const double exact = p * static_cast<double>(n) / 100.0;
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}
}  // namespace

std::optional<double> percentile(std::vector<double> values, double p,
                                 std::size_t min_beyond) {
  if (!(p > 0.0 && p < 100.0)) throw std::invalid_argument("percentile p");
  if (values.empty()) return std::nullopt;
  const std::size_t n = values.size();
  const std::size_t rank = nearest_rank(p, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

// ----------------------------------------------------------------- output

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + m.name + " is not finite");
    }
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (i > 0) out += ", ";
    out += '"';
    out += json_escape(m.name);
    out += "\": {\"value\": ";
    out += buf;
    out += ", \"unit\": \"";
    out += json_escape(m.unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mib() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

namespace {
// The probe's matrices (3 x 8 KiB) stay in L1 after an untimed warm-up,
// which also lets the core settle at its steady vector clock, so the probe
// times the core and not whatever the last chunk left behind.
constexpr int kProbeN = 32;
constexpr int kProbeWarmupReps = 50;
constexpr int kProbeReps = 150;
// About the probe's duration between benchmark chunks on an idle CPU of
// the 4-CPU reference host, so a speed of 1 means "as fast as there".
constexpr double kProbeNominalSeconds = 0.82e-3;

__attribute__((noinline)) void probe_kernel(const double* a, const double* b,
                                            double* c, int reps) {
  for (int r = 0; r < reps; ++r) {
    for (int i = 0; i < kProbeN; ++i) {
      for (int k = 0; k < kProbeN; ++k) {
        const double aik = a[i * kProbeN + k];
        for (int j = 0; j < kProbeN; ++j) {
          c[i * kProbeN + j] += aik * b[k * kProbeN + j];
        }
      }
    }
  }
}
}  // namespace

double host_speed() {
  static thread_local std::vector<double> a(kProbeN * kProbeN, 1.0 / 3.0);
  static thread_local std::vector<double> b(kProbeN * kProbeN, 0.5);
  static thread_local std::vector<double> c(kProbeN * kProbeN, 0.0);
  probe_kernel(a.data(), b.data(), c.data(), kProbeWarmupReps);
  const std::int64_t t0 = now_ns();
  probe_kernel(a.data(), b.data(), c.data(), kProbeReps);
  const std::int64_t t1 = now_ns();
  std::fill(c.begin(), c.end(), 0.0);
  return kProbeNominalSeconds / (static_cast<double>(t1 - t0) * 1e-9);
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() { release(); }

void CpuRotation::release() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  if (!cpus_.empty()) sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::next() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

double all_cpus_speed() {
  CpuRotation cpus;
  std::vector<double> speeds(host_cpus());
  for (double& s : speeds) {
    cpus.next();
    s = host_speed();
  }
  cpus.release();
  return median(speeds);
}

CpuTicks cpu_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already counted in user and nice.
  std::ifstream in("/proc/stat");
  std::string label;
  double field[8] = {};
  CpuTicks t;
  if (!(in >> label) || label != "cpu") return t;
  for (double& f : field) {
    if (!(in >> f)) return t;
  }
  t.busy = field[0] + field[1] + field[2] + field[5] + field[6] + field[7];
  t.steal = field[7];
  return t;
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  const double busy = after.busy - before.busy;
  const double steal = after.steal - before.steal;
  if (!(busy > 0.0) || steal < 0.0) return 0.0;
  return std::min(steal / busy, 0.99);
}

void ChunkTimer::start() {
  cpus_.next();
  speed_ = host_speed();
  t0_ = now_s();
}

void ChunkTimer::stop(double work) {
  const double rate = work / (now_s() - t0_);
  raw_.push_back(rate);
  rates_.push_back(rate / probe_scale(speed_));
  speeds_.push_back(speed_);
}

}  // namespace perfbench
