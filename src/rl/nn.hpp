// A fully-connected feed-forward network with manual backpropagation, plus
// SGD and Adam optimizers.
//
// Architecture per the paper's Fig. 4: input layer (3·I neurons), two hidden
// ReLU layers, linear output layer (C·PL neurons). The implementation is
// generic in the layer sizes so ablations can vary width and depth.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "io/tensors.hpp"
#include "rl/matrix.hpp"

namespace ctj::rl {

/// One affine layer y = x·W + b. Holds no activations: the owning Mlp keeps
/// the layer inputs that backprop needs.
class LinearLayer {
 public:
  LinearLayer(std::size_t in, std::size_t out, Rng& rng);

  /// Allocation-free forward: y = x·W + b, reusing y's buffer. With `relu`
  /// set the activation is fused into the bias kernel (single pass over y).
  void forward_into(const Matrix& x, Matrix& y, bool relu) const;

  /// Backward, split in two: accumulate the parameter gradients (summed
  /// over the batch) from the layer input actually seen in forward…
  void backward_params_acc(const Matrix& input, const Matrix& grad_out);
  /// …and propagate the input gradient grad_out·Wᵀ without touching
  /// parameters. A one-hot grad_out (the DQN output layer) reads only the
  /// W columns of its nonzeros; see kern::KernelOps::matmul_a_bt_acc.
  void grad_input_into(const Matrix& grad_out, Matrix& grad_in) const;

  void zero_grad();

  Matrix& weights() { return w_; }
  Matrix& bias() { return b_; }
  const Matrix& weights() const { return w_; }
  const Matrix& bias() const { return b_; }
  Matrix& weight_grad() { return gw_; }
  Matrix& bias_grad() { return gb_; }

  std::size_t param_count() const { return w_.size() + b_.size(); }

  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  Matrix w_;   // [in × out]
  Matrix b_;   // [1 × out]
  Matrix gw_;
  Matrix gb_;
};

/// Multi-layer perceptron with ReLU activations between affine layers.
class Mlp {
 public:
  /// sizes = {in, h1, …, out}; at least one layer (sizes.size() >= 2).
  Mlp(std::vector<std::size_t> sizes, Rng& rng);

  Matrix forward(const Matrix& x);
  Matrix forward_const(const Matrix& x) const;

  /// Training forward pass reusing internal activation buffers; caches the
  /// activations backward() needs (the ReLU derivative is read back from
  /// them). The returned reference is valid until the next forward on this
  /// network.
  const Matrix& forward_cached(const Matrix& x);

  /// Inference forward pass reusing internal scratch (no backward caching,
  /// no allocations after warm-up). Non-const: see forward_const for the
  /// thread-safe variant.
  void forward_eval(const Matrix& x, Matrix& out);

  /// Inference forward with caller-owned ping-pong scratch buffers, so a
  /// const network can run allocation-free (each caller brings its own
  /// scratch; concurrent calls must not share buffers).
  void forward_scratch(const Matrix& x, Matrix& out, Matrix& scratch_a,
                       Matrix& scratch_b) const;

  /// Backprop from the output gradient; fills all layer gradients. Requires
  /// a preceding forward() / forward_cached() on this network.
  void backward(const Matrix& grad_out);

  void zero_grad();
  std::size_t param_count() const;
  std::size_t num_layers() const { return layers_.size(); }
  LinearLayer& layer(std::size_t i);
  const LinearLayer& layer(std::size_t i) const;
  const std::vector<std::size_t>& sizes() const { return sizes_; }

  /// Copy all parameters from another identically-shaped network
  /// (target-network sync).
  void copy_parameters_from(const Mlp& other);

  /// Polyak soft update: move every parameter a fraction tau of the way
  /// toward `other` (target ← (1−τ)·target + τ·online). tau = 1 is
  /// copy_parameters_from(); tau = 0 is a no-op.
  void lerp_parameters_from(const Mlp& other, double tau);

  /// Flatten all parameters into a caller-sized buffer of param_count()
  /// doubles (layer order, weights then bias per layer).
  void copy_flat_to(std::span<double> out) const;

  /// Binary (de)serialization of the full parameter set.
  void save(std::ostream& os) const;
  void load(std::istream& is);
  void save_file(const std::string& path) const;
  void load_file(const std::string& path);

  // Checkpoint-format serialization (io::NamedTensor blobs, tensors named
  // "layer<i>.w" / "layer<i>.b"). The three-step export/check/apply split
  // lets a composite loader (DqnAgent) validate every component before
  // mutating any of them.
  std::vector<io::NamedTensor> export_state() const;
  /// Throws io::IoError (kStateMismatch) unless the tensor list matches
  /// this network's layer count, names and shapes exactly.
  void check_tensors(const std::vector<io::NamedTensor>& tensors) const;
  /// Copy checked tensors into the parameters (no allocation, no throwing
  /// after check_tensors passed).
  void apply_tensors(const std::vector<io::NamedTensor>& tensors);
  void save_state(io::ByteWriter& out) const;
  void load_state(io::ByteReader& in);

 private:
  std::vector<std::size_t> sizes_;
  std::vector<LinearLayer> layers_;
  std::vector<Matrix> acts_;  // acts_[i]: input of layer i; back is output
  Matrix grad_a_, grad_b_;    // ping-pong buffers for backward()
  Matrix eval_a_, eval_b_;    // ping-pong buffers for forward_eval()
};

/// Adam optimizer over an Mlp's parameters.
class AdamOptimizer {
 public:
  struct Config {
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
  };

  AdamOptimizer(const Mlp& net, Config config);

  /// Apply one update using the gradients currently stored in the network.
  void step(Mlp& net);

  const Config& config() const { return config_; }
  std::size_t step_count() const { return t_; }

  // Checkpoint-format serialization: the step counter plus every moment
  // matrix ("p<slot>.m" / "p<slot>.v"), same decode/check/apply protocol
  // as Mlp so resumed Adam updates are bit-identical.
  struct State {
    std::uint64_t step_count = 0;
    std::vector<io::NamedTensor> moments;
  };
  void save_state(io::ByteWriter& out) const;
  static State decode_state(io::ByteReader& in);
  /// Throws io::IoError (kStateMismatch) unless the moments match this
  /// optimizer's parameter slots in count, names and shapes.
  void check_state(const State& state) const;
  void apply_state(const State& state);
  void load_state(io::ByteReader& in);

 private:
  Config config_;
  std::vector<Matrix> m_;  // first moments, one per parameter matrix
  std::vector<Matrix> v_;  // second moments
  std::size_t t_ = 0;
};

/// Plain SGD (used by tests as a cross-check of the gradient computation).
void sgd_step(Mlp& net, double lr);

/// Huber loss derivative for a scalar error (delta = 1).
double huber_grad(double error, double delta = 1.0);

/// Huber loss itself: ½e² in the quadratic zone, δ(|e| − ½δ) beyond — the
/// objective whose derivative huber_grad() clips.
double huber_loss(double error, double delta = 1.0);

}  // namespace ctj::rl
