#include "src/nn/lstm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>

#include "src/nn/activations.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace cloudgen {
namespace {

// One row of gate activation and state update. StepForwardBatch is its only
// caller, so training's forward pass and every generation step emit the exact
// same float operations — including any FMA contraction the compiler picks
// for c.
// `g` holds pre-activation gates [i|f|g|o] (bias not yet added) and is
// overwritten with post-activation values. Each step is one contiguous pass;
// the sigmoid and tanh passes run the vector kernels, which reproduce
// SigmoidScalar and libm tanhf bit for bit (activations.h says where a
// build without FMA differs). `cp` may equal `c_row`
// (in-place state update: element j of c reads only element j of cp);
// `h_row` aliases no other argument, so it holds tanh(c) until the last pass.
inline void ActivateGatesRow(const float* bias, const float* cp, float* g, float* h_row,
                             float* c_row, size_t hidden) {
  const float* i_gate = g;
  const float* f_gate = g + hidden;
  float* g_gate = g + 2 * hidden;
  float* o_gate = g + 3 * hidden;
  for (size_t j = 0; j < 4 * hidden; ++j) {
    g[j] += bias[j];
  }
  SigmoidInPlace(g, 2 * hidden);
  TanhInPlace(g_gate, hidden);
  SigmoidInPlace(o_gate, hidden);
  for (size_t j = 0; j < hidden; ++j) {
    c_row[j] = f_gate[j] * cp[j] + i_gate[j] * g_gate[j];
  }
  std::copy(c_row, c_row + hidden, h_row);
  TanhInPlace(h_row, hidden);
  for (size_t j = 0; j < hidden; ++j) {
    h_row[j] = o_gate[j] * h_row[j];
  }
}

}  // namespace

LstmState LstmState::Zero(size_t layers, size_t batch, size_t hidden) {
  LstmState state;
  state.h.assign(layers, Matrix(batch, hidden));
  state.c.assign(layers, Matrix(batch, hidden));
  return state;
}

LstmLayer::LstmLayer(size_t in_dim, size_t hidden_dim, Rng& rng)
    : hidden_(hidden_dim),
      wx_(in_dim, 4 * hidden_dim),
      wh_(hidden_dim, 4 * hidden_dim),
      b_(1, 4 * hidden_dim),
      grad_wx_(in_dim, 4 * hidden_dim),
      grad_wh_(hidden_dim, 4 * hidden_dim),
      grad_b_(1, 4 * hidden_dim) {
  const float bound = 1.0f / std::sqrt(static_cast<float>(hidden_dim));
  wx_.RandomUniform(rng, bound);
  wh_.RandomUniform(rng, bound);
  // Standard trick: bias the forget gate open so gradients flow at init.
  for (size_t j = hidden_; j < 2 * hidden_; ++j) {
    b_(0, j) = 1.0f;
  }
}

void LstmLayer::ForwardSequence(const std::vector<Matrix>& inputs,
                                std::vector<Matrix>* outputs) {
  CG_CHECK(outputs != nullptr);
  CG_CHECK(!inputs.empty());
  const size_t steps = inputs.size();
  const size_t batch = inputs[0].Rows();
  // View, not copy: the caller keeps `inputs` alive until BackwardSequence
  // returns (see the header contract). Saves a full deep copy of the input
  // sequence per layer per minibatch.
  cache_inputs_ = &inputs;
  cache_h_prev_.resize(steps);
  cache_c_prev_.resize(steps);
  cache_gates_.resize(steps);
  cache_tanh_c_.resize(steps);
  outputs->resize(steps);

  Matrix h(batch, hidden_);
  Matrix c(batch, hidden_);
  for (size_t t = 0; t < steps; ++t) {
    CG_CHECK(inputs[t].Rows() == batch && inputs[t].Cols() == wx_.Rows());
    cache_h_prev_[t] = h;
    cache_c_prev_[t] = c;
    // The generation step itself: h and c advance in place, and the gates
    // it leaves behind are the post-activation values the backward reads.
    StepForwardBatch(inputs[t], &h, &c, &cache_gates_[t]);
    // tanh(c_t) is reused by the backward pass.
    cache_tanh_c_[t] = c;
    TanhInPlace(&cache_tanh_c_[t]);
    (*outputs)[t] = h;
  }
}

void LstmLayer::BackwardSequence(const std::vector<Matrix>& doutputs,
                                 std::vector<Matrix>* dinputs) {
  CG_CHECK_MSG(cache_inputs_ != nullptr, "BackwardSequence before ForwardSequence");
  const std::vector<Matrix>& cache_x = *cache_inputs_;
  const size_t steps = cache_x.size();
  CG_CHECK_MSG(steps > 0, "BackwardSequence before ForwardSequence");
  CG_CHECK(doutputs.size() == steps);
  const size_t batch = cache_x[0].Rows();
  if (dinputs != nullptr) {
    dinputs->resize(steps);
  }

  Matrix dh_next(batch, hidden_);
  Matrix dc_next(batch, hidden_);
  Matrix dgates(batch, 4 * hidden_);
  for (size_t t = steps; t-- > 0;) {
    // Total gradient on h_t: loss term + recurrent term.
    Matrix dh = doutputs[t];
    CG_CHECK(dh.Rows() == batch && dh.Cols() == hidden_);
    dh.Add(dh_next);

    const Matrix& gates = cache_gates_[t];
    const Matrix& tanh_c = cache_tanh_c_[t];
    const Matrix& c_prev = cache_c_prev_[t];
    Matrix dc_prev(batch, hidden_);
    for (size_t r = 0; r < batch; ++r) {
      const float* g = gates.Row(r);
      const float* tc = tanh_c.Row(r);
      const float* cp = c_prev.Row(r);
      const float* dh_row = dh.Row(r);
      const float* dcn = dc_next.Row(r);
      float* dg = dgates.Row(r);
      float* dcp = dc_prev.Row(r);
      for (size_t j = 0; j < hidden_; ++j) {
        const float i_gate = g[j];
        const float f_gate = g[hidden_ + j];
        const float g_gate = g[2 * hidden_ + j];
        const float o_gate = g[3 * hidden_ + j];
        const float do_gate = dh_row[j] * tc[j];
        const float dc = dh_row[j] * o_gate * (1.0f - tc[j] * tc[j]) + dcn[j];
        const float di = dc * g_gate;
        const float df = dc * cp[j];
        const float dgg = dc * i_gate;
        dcp[j] = dc * f_gate;
        // Pre-activation gradients.
        dg[j] = di * i_gate * (1.0f - i_gate);
        dg[hidden_ + j] = df * f_gate * (1.0f - f_gate);
        dg[2 * hidden_ + j] = dgg * (1.0f - g_gate * g_gate);
        dg[3 * hidden_ + j] = do_gate * o_gate * (1.0f - o_gate);
      }
    }

    // Parameter gradients.
    Gemm(true, false, 1.0f, cache_x[t], dgates, 1.0f, &grad_wx_);
    Gemm(true, false, 1.0f, cache_h_prev_[t], dgates, 1.0f, &grad_wh_);
    for (size_t r = 0; r < batch; ++r) {
      const float* dg = dgates.Row(r);
      float* gb = grad_b_.Row(0);
      for (size_t j = 0; j < 4 * hidden_; ++j) {
        gb[j] += dg[j];
      }
    }

    // Input and recurrent gradients.
    if (dinputs != nullptr) {
      (*dinputs)[t].Resize(batch, wx_.Rows());
      Gemm(false, true, 1.0f, dgates, wx_, 0.0f, &(*dinputs)[t]);
    }
    dh_next.Resize(batch, hidden_);
    Gemm(false, true, 1.0f, dgates, wh_, 0.0f, &dh_next);
    dc_next = dc_prev;
  }
}

void LstmLayer::StepForwardBatch(const Matrix& x, Matrix* h, Matrix* c,
                                 Matrix* gates) const {
  CG_DCHECK(h != nullptr && c != nullptr && gates != nullptr);
  const size_t batch = x.Rows();
  const size_t h4 = 4 * hidden_;
  CG_DCHECK(h->Rows() == batch && h->Cols() == hidden_);
  CG_DCHECK(c->Rows() == batch && c->Cols() == hidden_);
  if (gates->Rows() != batch || gates->Cols() != h4) {
    gates->Resize(batch, h4);
  }
  // Two GEMMs, never fused into one [x|h] product, which would change the
  // accumulation chains. Both products fully consume `h` before the
  // activation below overwrites it, so the in-place state update is safe.
  // Below Gemm's row tile (one stream, a 3-row training shard) both
  // products run the small-M GEMV kernel.
  Gemm(false, false, 1.0f, x, wx_, 0.0f, gates);
  Gemm(false, false, 1.0f, *h, wh_, 1.0f, gates);
  for (size_t r = 0; r < batch; ++r) {
    ActivateGatesRow(b_.Row(0), c->Row(r), gates->Row(r), h->Row(r), c->Row(r),
                     hidden_);
  }
}

std::vector<Matrix*> LstmLayer::Params() { return {&wx_, &wh_, &b_}; }

std::vector<const Matrix*> LstmLayer::Params() const { return {&wx_, &wh_, &b_}; }

std::vector<Matrix*> LstmLayer::Grads() { return {&grad_wx_, &grad_wh_, &grad_b_}; }

void LstmLayer::ZeroGrads() {
  grad_wx_.SetZero();
  grad_wh_.SetZero();
  grad_b_.SetZero();
}

void LstmLayer::Save(std::ostream& out) const {
  const uint64_t hidden = hidden_;
  out.write(reinterpret_cast<const char*>(&hidden), sizeof(hidden));
  WriteMatrix(out, wx_);
  WriteMatrix(out, wh_);
  WriteMatrix(out, b_);
}

void LstmLayer::Load(std::istream& in) {
  uint64_t hidden = 0;
  in.read(reinterpret_cast<char*>(&hidden), sizeof(hidden));
  CG_CHECK_MSG(static_cast<bool>(in), "LstmLayer::Load: truncated stream");
  hidden_ = hidden;
  wx_ = ReadMatrix(in);
  wh_ = ReadMatrix(in);
  b_ = ReadMatrix(in);
  grad_wx_.Resize(wx_.Rows(), wx_.Cols());
  grad_wh_.Resize(wh_.Rows(), wh_.Cols());
  grad_b_.Resize(b_.Rows(), b_.Cols());
}

StackedLstm::StackedLstm(size_t in_dim, size_t hidden_dim, size_t num_layers, Rng& rng) {
  CG_CHECK(num_layers >= 1);
  layers_.reserve(num_layers);
  layers_.emplace_back(in_dim, hidden_dim, rng);
  for (size_t l = 1; l < num_layers; ++l) {
    layers_.emplace_back(hidden_dim, hidden_dim, rng);
  }
}

void StackedLstm::ForwardSequence(const std::vector<Matrix>& inputs,
                                  std::vector<Matrix>* outputs) {
  CG_CHECK(outputs != nullptr);
  layer_outputs_.resize(layers_.size());
  const std::vector<Matrix>* current = &inputs;
  for (size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].ForwardSequence(*current, &layer_outputs_[l]);
    current = &layer_outputs_[l];
  }
  *outputs = layer_outputs_.back();
}

void StackedLstm::BackwardSequence(const std::vector<Matrix>& doutputs) {
  CG_CHECK(!layers_.empty());
  std::vector<Matrix> grad = doutputs;
  for (size_t l = layers_.size(); l-- > 0;) {
    std::vector<Matrix> dinput;
    const bool need_dinput = l > 0;
    layers_[l].BackwardSequence(grad, need_dinput ? &dinput : nullptr);
    if (need_dinput) {
      grad = std::move(dinput);
    }
  }
}

void StackedLstm::StepForwardBatch(const Matrix& x, LstmState* state,
                                   Matrix* gates) const {
  CG_DCHECK(state != nullptr && gates != nullptr);
  CG_DCHECK(state->h.size() == layers_.size() && state->c.size() == layers_.size());
  const Matrix* cur = &x;
  for (size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].StepForwardBatch(*cur, &state->h[l], &state->c[l], gates);
    cur = &state->h[l];
  }
}

LstmState StackedLstm::ZeroState(size_t batch) const {
  return LstmState::Zero(layers_.size(), batch, HiddenDim());
}

std::vector<Matrix*> StackedLstm::Params() {
  std::vector<Matrix*> params;
  for (auto& layer : layers_) {
    for (Matrix* p : layer.Params()) {
      params.push_back(p);
    }
  }
  return params;
}

std::vector<const Matrix*> StackedLstm::Params() const {
  std::vector<const Matrix*> params;
  for (const auto& layer : layers_) {
    for (const Matrix* p : layer.Params()) {
      params.push_back(p);
    }
  }
  return params;
}

std::vector<Matrix*> StackedLstm::Grads() {
  std::vector<Matrix*> grads;
  for (auto& layer : layers_) {
    for (Matrix* g : layer.Grads()) {
      grads.push_back(g);
    }
  }
  return grads;
}

void StackedLstm::ZeroGrads() {
  for (auto& layer : layers_) {
    layer.ZeroGrads();
  }
}

void StackedLstm::Save(std::ostream& out) const {
  const uint64_t n = layers_.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  for (const auto& layer : layers_) {
    layer.Save(out);
  }
}

void StackedLstm::Load(std::istream& in) {
  uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  CG_CHECK_MSG(static_cast<bool>(in), "StackedLstm::Load: truncated stream");
  layers_.assign(n, LstmLayer());
  for (auto& layer : layers_) {
    layer.Load(in);
  }
}

}  // namespace cloudgen
