#include "rl/nn.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/check.hpp"
#include "common/kernels.hpp"

namespace ctj::rl {

LinearLayer::LinearLayer(std::size_t in, std::size_t out, Rng& rng)
    : w_(Matrix::he_normal(in, out, rng)),
      b_(1, out, 0.0),
      gw_(in, out, 0.0),
      gb_(1, out, 0.0) {}

void LinearLayer::forward_into(const Matrix& x, Matrix& y, bool relu) const {
  matmul_into(y, x, w_);
  kern::ops().bias_act(y.data(), b_.data(), y.rows(), y.cols(), relu);
}

void LinearLayer::backward_params_acc(const Matrix& input,
                                      const Matrix& grad_out) {
  CTJ_CHECK(input.rows() == grad_out.rows());
  matmul_at_b_acc(gw_, input, grad_out);
  // Bias gradient: the column sum of grad_out, rows added in order.
  double* gbias = gb_.data();
  const std::size_t cols = grad_out.cols();
  for (std::size_t r = 0; r < grad_out.rows(); ++r) {
    const double* row = grad_out.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) gbias[c] += row[c];
  }
}

void LinearLayer::grad_input_into(const Matrix& grad_out,
                                  Matrix& grad_in) const {
  matmul_a_bt_into(grad_in, grad_out, w_);
}

void LinearLayer::zero_grad() {
  gw_.fill(0.0);
  gb_.fill(0.0);
}

void LinearLayer::save(std::ostream& os) const {
  w_.save(os);
  b_.save(os);
}

void LinearLayer::load(std::istream& is) {
  Matrix w = Matrix::load(is);
  Matrix b = Matrix::load(is);
  CTJ_CHECK_MSG(w.rows() == w_.rows() && w.cols() == w_.cols() &&
                    b.cols() == b_.cols(),
                "layer shape mismatch on load");
  w_ = std::move(w);
  b_ = std::move(b);
}

Mlp::Mlp(std::vector<std::size_t> sizes, Rng& rng) : sizes_(std::move(sizes)) {
  CTJ_CHECK_MSG(sizes_.size() >= 2, "an MLP needs at least input and output");
  layers_.reserve(sizes_.size() - 1);
  for (std::size_t i = 0; i + 1 < sizes_.size(); ++i) {
    layers_.emplace_back(sizes_[i], sizes_[i + 1], rng);
  }
}

Matrix Mlp::forward(const Matrix& x) { return forward_cached(x); }

const Matrix& Mlp::forward_cached(const Matrix& x) {
  acts_.resize(layers_.size() + 1);
  acts_[0] = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    // ReLU fused into the bias kernel on every hidden layer.
    layers_[i].forward_into(acts_[i], acts_[i + 1], i + 1 < layers_.size());
  }
  return acts_.back();
}

Matrix Mlp::forward_const(const Matrix& x) const {
  Matrix h = x;
  Matrix next;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].forward_into(h, next, i + 1 < layers_.size());
    std::swap(h, next);
  }
  return h;
}

void Mlp::forward_eval(const Matrix& x, Matrix& out) {
  forward_scratch(x, out, eval_a_, eval_b_);
}

void Mlp::forward_scratch(const Matrix& x, Matrix& out, Matrix& scratch_a,
                          Matrix& scratch_b) const {
  const Matrix* cur = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const bool last = i + 1 == layers_.size();
    Matrix& dst = last ? out : (i % 2 == 0 ? scratch_a : scratch_b);
    layers_[i].forward_into(*cur, dst, !last);
    cur = &dst;
  }
}

void Mlp::backward(const Matrix& grad_out) {
  CTJ_CHECK_MSG(acts_.size() == layers_.size() + 1 &&
                    acts_[0].rows() == grad_out.rows(),
                "backward() without a matching forward()");
  // The output gradient is read in place; the hidden-layer gradients
  // alternate between the two scratch buffers.
  const Matrix* g = &grad_out;
  Matrix* next = &grad_a_;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    layers_[i].backward_params_acc(acts_[i], *g);
    if (i > 0) {
      layers_[i].grad_input_into(*g, *next);
      // ReLU derivative from the post-activation input of layer i
      // (h > 0 post-ReLU iff pre-ReLU), applied as a 1/0 factor.
      const Matrix& h = acts_[i];
      CTJ_CHECK(h.rows() == next->rows() && h.cols() == next->cols());
      for (std::size_t k = 0; k < next->size(); ++k) {
        next->data()[k] *= h.data()[k] > 0.0 ? 1.0 : 0.0;
      }
      g = next;
      next = next == &grad_a_ ? &grad_b_ : &grad_a_;
    }
  }
}

void Mlp::zero_grad() {
  for (auto& layer : layers_) layer.zero_grad();
}

std::size_t Mlp::param_count() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer.param_count();
  return n;
}

LinearLayer& Mlp::layer(std::size_t i) {
  CTJ_CHECK(i < layers_.size());
  return layers_[i];
}

const LinearLayer& Mlp::layer(std::size_t i) const {
  CTJ_CHECK(i < layers_.size());
  return layers_[i];
}

void Mlp::copy_parameters_from(const Mlp& other) {
  CTJ_CHECK_MSG(sizes_ == other.sizes_, "cannot sync differently-shaped MLPs");
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].weights() = other.layers_[i].weights();
    layers_[i].bias() = other.layers_[i].bias();
  }
}

void Mlp::lerp_parameters_from(const Mlp& other, double tau) {
  CTJ_CHECK_MSG(sizes_ == other.sizes_, "cannot sync differently-shaped MLPs");
  CTJ_CHECK_MSG(tau >= 0.0 && tau <= 1.0, "tau must lie in [0, 1]");
  if (tau == 1.0) {
    // d + 1·(s − d) is not bitwise s under rounding; keep the documented
    // equivalence with copy_parameters_from() exact.
    copy_parameters_from(other);
    return;
  }
  const auto lerp = [tau](Matrix& dst, const Matrix& src) {
    double* d = dst.data();
    const double* s = src.data();
    for (std::size_t i = 0; i < dst.size(); ++i) d[i] += tau * (s[i] - d[i]);
  };
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    lerp(layers_[i].weights(), other.layers_[i].weights());
    lerp(layers_[i].bias(), other.layers_[i].bias());
  }
}

void Mlp::copy_flat_to(std::span<double> out) const {
  CTJ_CHECK_MSG(out.size() == param_count(),
                "flat buffer holds " << out.size() << " doubles, network has "
                                     << param_count());
  double* dst = out.data();
  for (const auto& layer : layers_) {
    const Matrix& w = layer.weights();
    const Matrix& b = layer.bias();
    dst = std::copy(w.data(), w.data() + w.size(), dst);
    dst = std::copy(b.data(), b.data() + b.size(), dst);
  }
}

void Mlp::save(std::ostream& os) const {
  for (const auto& layer : layers_) layer.save(os);
}

void Mlp::load(std::istream& is) {
  for (auto& layer : layers_) layer.load(is);
}

namespace {

std::string shape_string(std::uint64_t rows, std::uint64_t cols) {
  return std::to_string(rows) + "x" + std::to_string(cols);
}

void check_tensor_list(const std::vector<io::NamedTensor>& tensors,
                       const std::vector<io::NamedTensor>& expected,
                       const char* what) {
  if (tensors.size() != expected.size()) {
    throw io::IoError(io::ErrorKind::kStateMismatch,
                      std::string(what) + " has " +
                          std::to_string(tensors.size()) + " tensors, expected " +
                          std::to_string(expected.size()));
  }
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    if (tensors[i].name != expected[i].name) {
      throw io::IoError(io::ErrorKind::kStateMismatch,
                        std::string(what) + " tensor " + std::to_string(i) +
                            " is \"" + tensors[i].name + "\", expected \"" +
                            expected[i].name + "\"");
    }
    if (tensors[i].rows != expected[i].rows ||
        tensors[i].cols != expected[i].cols) {
      throw io::IoError(io::ErrorKind::kStateMismatch,
                        std::string(what) + " tensor " + tensors[i].name +
                            " is " +
                            shape_string(tensors[i].rows, tensors[i].cols) +
                            ", expected " +
                            shape_string(expected[i].rows, expected[i].cols));
    }
  }
}

io::NamedTensor tensor_shape_of(std::string name, const Matrix& m) {
  io::NamedTensor t;
  t.name = std::move(name);
  t.rows = m.rows();
  t.cols = m.cols();
  return t;
}

}  // namespace

std::vector<io::NamedTensor> Mlp::export_state() const {
  std::vector<io::NamedTensor> tensors;
  tensors.reserve(2 * layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const std::string prefix = "layer" + std::to_string(i);
    io::NamedTensor w = tensor_shape_of(prefix + ".w", layers_[i].weights());
    w.data.assign(layers_[i].weights().data(),
                  layers_[i].weights().data() + layers_[i].weights().size());
    tensors.push_back(std::move(w));
    io::NamedTensor b = tensor_shape_of(prefix + ".b", layers_[i].bias());
    b.data.assign(layers_[i].bias().data(),
                  layers_[i].bias().data() + layers_[i].bias().size());
    tensors.push_back(std::move(b));
  }
  return tensors;
}

void Mlp::check_tensors(const std::vector<io::NamedTensor>& tensors) const {
  std::vector<io::NamedTensor> expected;
  expected.reserve(2 * layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const std::string prefix = "layer" + std::to_string(i);
    expected.push_back(tensor_shape_of(prefix + ".w", layers_[i].weights()));
    expected.push_back(tensor_shape_of(prefix + ".b", layers_[i].bias()));
  }
  check_tensor_list(tensors, expected, "network");
}

void Mlp::apply_tensors(const std::vector<io::NamedTensor>& tensors) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const io::NamedTensor& w = tensors[2 * i];
    const io::NamedTensor& b = tensors[2 * i + 1];
    std::copy(w.data.begin(), w.data.end(), layers_[i].weights().data());
    std::copy(b.data.begin(), b.data.end(), layers_[i].bias().data());
  }
}

void Mlp::save_state(io::ByteWriter& out) const {
  io::write_tensors(out, export_state());
}

void Mlp::load_state(io::ByteReader& in) {
  const std::vector<io::NamedTensor> tensors = io::read_tensors(in);
  check_tensors(tensors);
  apply_tensors(tensors);
}

void Mlp::save_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  CTJ_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  save(os);
}

void Mlp::load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  CTJ_CHECK_MSG(is.is_open(), "cannot open " << path << " for reading");
  load(is);
}

AdamOptimizer::AdamOptimizer(const Mlp& net, Config config) : config_(config) {
  CTJ_CHECK(config.lr > 0.0);
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const auto& layer = net.layer(i);
    m_.push_back(Matrix::zeros(layer.weights().rows(), layer.weights().cols()));
    m_.push_back(Matrix::zeros(1, layer.bias().cols()));
    v_.push_back(Matrix::zeros(layer.weights().rows(), layer.weights().cols()));
    v_.push_back(Matrix::zeros(1, layer.bias().cols()));
  }
}

void AdamOptimizer::step(Mlp& net) {
  ++t_;
  const double bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
  std::size_t slot = 0;
  auto update = [&](Matrix& param, const Matrix& grad) {
    kern::adam_update(param.data(), m_[slot].data(), v_[slot].data(),
                      grad.data(), param.size(), config_.beta1, config_.beta2,
                      config_.lr, bc1, bc2, config_.epsilon);
    ++slot;
  };
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    update(net.layer(i).weights(), net.layer(i).weight_grad());
    update(net.layer(i).bias(), net.layer(i).bias_grad());
  }
}

void AdamOptimizer::save_state(io::ByteWriter& out) const {
  out.u64(t_);
  std::vector<io::NamedTensor> tensors;
  tensors.reserve(2 * m_.size());
  for (std::size_t slot = 0; slot < m_.size(); ++slot) {
    const std::string prefix = "p" + std::to_string(slot);
    io::NamedTensor m = tensor_shape_of(prefix + ".m", m_[slot]);
    m.data.assign(m_[slot].data(), m_[slot].data() + m_[slot].size());
    tensors.push_back(std::move(m));
    io::NamedTensor v = tensor_shape_of(prefix + ".v", v_[slot]);
    v.data.assign(v_[slot].data(), v_[slot].data() + v_[slot].size());
    tensors.push_back(std::move(v));
  }
  io::write_tensors(out, tensors);
}

AdamOptimizer::State AdamOptimizer::decode_state(io::ByteReader& in) {
  State state;
  state.step_count = in.u64();
  state.moments = io::read_tensors(in);
  return state;
}

void AdamOptimizer::check_state(const State& state) const {
  std::vector<io::NamedTensor> expected;
  expected.reserve(2 * m_.size());
  for (std::size_t slot = 0; slot < m_.size(); ++slot) {
    const std::string prefix = "p" + std::to_string(slot);
    expected.push_back(tensor_shape_of(prefix + ".m", m_[slot]));
    expected.push_back(tensor_shape_of(prefix + ".v", v_[slot]));
  }
  check_tensor_list(state.moments, expected, "optimizer");
}

void AdamOptimizer::apply_state(const State& state) {
  t_ = static_cast<std::size_t>(state.step_count);
  for (std::size_t slot = 0; slot < m_.size(); ++slot) {
    const io::NamedTensor& m = state.moments[2 * slot];
    const io::NamedTensor& v = state.moments[2 * slot + 1];
    std::copy(m.data.begin(), m.data.end(), m_[slot].data());
    std::copy(v.data.begin(), v.data.end(), v_[slot].data());
  }
}

void AdamOptimizer::load_state(io::ByteReader& in) {
  const State state = decode_state(in);
  check_state(state);
  apply_state(state);
}

void sgd_step(Mlp& net, double lr) {
  CTJ_CHECK(lr > 0.0);
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    auto& layer = net.layer(i);
    for (std::size_t k = 0; k < layer.weights().size(); ++k) {
      layer.weights().data()[k] -= lr * layer.weight_grad().data()[k];
    }
    for (std::size_t k = 0; k < layer.bias().size(); ++k) {
      layer.bias().data()[k] -= lr * layer.bias_grad().data()[k];
    }
  }
}

double huber_grad(double error, double delta) {
  CTJ_CHECK(delta > 0.0);
  if (error > delta) return delta;
  if (error < -delta) return -delta;
  return error;
}

double huber_loss(double error, double delta) {
  CTJ_CHECK(delta > 0.0);
  const double abs_error = std::abs(error);
  if (abs_error <= delta) return 0.5 * error * error;
  return delta * (abs_error - 0.5 * delta);
}

}  // namespace ctj::rl
