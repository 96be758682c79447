// LSTM layer (Hochreiter & Schmidhuber) with full backpropagation through
// time, plus a stacked multi-layer wrapper. This is the recurrent substrate
// for both the flavor-sequence model (§2.2) and the lifetime-hazard model
// (§2.3) of the paper.
//
// Layout conventions:
//  * A minibatch timestep is a Matrix of shape (batch, dim).
//  * A sequence is a std::vector<Matrix> of length T.
//  * Gate pre-activations are packed as [i | f | g | o], each of width H.
//
// Training and generation modes:
//  * ForwardSequence/BackwardSequence run over whole sequences with caches
//    (used by the trainer; hidden state is zeroed before each forward pass,
//    matching §4.2 of the paper).
//  * StepForward advances one step from an explicit LstmState (used during
//    trace generation where jobs are sampled one at a time).
#ifndef SRC_NN_LSTM_H_
#define SRC_NN_LSTM_H_

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "src/tensor/matrix.h"

namespace cloudgen {

class Rng;

// Per-layer recurrent state (h and c), each of shape (batch, hidden).
struct LstmState {
  std::vector<Matrix> h;
  std::vector<Matrix> c;

  // Zero state for `layers` layers, `batch` rows, `hidden` columns.
  static LstmState Zero(size_t layers, size_t batch, size_t hidden);
};

// Single LSTM layer.
class LstmLayer {
 public:
  LstmLayer() = default;
  LstmLayer(size_t in_dim, size_t hidden_dim, Rng& rng);

  size_t InDim() const { return wx_.Rows(); }
  size_t HiddenDim() const { return hidden_; }

  // Runs the layer over `inputs` (T matrices of shape (B, in)), starting from
  // zero state, caching everything needed by BackwardSequence. Writes the T
  // hidden-state outputs (B, H) to `outputs`.
  //
  // Lifetime contract: the layer keeps a *view* of `inputs` (no per-timestep
  // copy), so the caller must keep `inputs` alive and unmodified until the
  // matching BackwardSequence returns (or until the next ForwardSequence
  // replaces the view). Every current caller (trainers, tests) owns the input
  // sequence across the forward+backward pair.
  void ForwardSequence(const std::vector<Matrix>& inputs, std::vector<Matrix>* outputs);

  // Given dL/dH_t for every step, accumulates parameter gradients and writes
  // dL/dX_t per step into `dinputs` (pass nullptr to skip).
  void BackwardSequence(const std::vector<Matrix>& doutputs, std::vector<Matrix>* dinputs);

  // Single-step inference. `h` and `c` are this layer's rows of an LstmState
  // and are updated in place; `out_h` receives the new hidden state.
  void StepForward(const Matrix& x, Matrix* h, Matrix* c) const;

  // Zero-allocation batch-1 step that reads the parameters in place. `x` has
  // InDim() elements; `h` and `c` (HiddenDim() each) are updated in place.
  // `gates` and `acc` are caller-owned scratch of 4*H floats each.
  // Bitwise-identical to StepForward: the GEMV chains match the blocked
  // GEMM's per-element chains and the gate activation shares one helper with
  // the reference path.
  void StepForwardFast(const float* x, float* h, float* c, float* gates,
                       float* acc) const;

  // Batched multi-stream step: row r of `x` (B, InDim) is stream r's input
  // and row r of `h`/`c` (B, H each) is its recurrent state, updated in
  // place. `gates` is caller-owned scratch, resized to (B, 4H). Row r's
  // outputs are bitwise-identical to a batch-1 StepForward/StepForwardFast
  // on that row alone: the two GEMMs compute every output element as one
  // k-ascending chain independent of the other rows, and the gate
  // activation is the same shared helper as both single-stream routes.
  void StepForwardBatch(const Matrix& x, Matrix* h, Matrix* c, Matrix* gates) const;

  // Parameter access (optimizer, fault injection). Order: wx, wh, b.
  std::vector<Matrix*> Params();
  std::vector<const Matrix*> Params() const;
  std::vector<Matrix*> Grads();
  void ZeroGrads();

  void Save(std::ostream& out) const;
  void Load(std::istream& in);

 private:
  size_t hidden_ = 0;
  Matrix wx_;  // (in, 4H)
  Matrix wh_;  // (H, 4H)
  Matrix b_;   // (1, 4H); forget-gate slice initialized to 1.

  Matrix grad_wx_;
  Matrix grad_wh_;
  Matrix grad_b_;

  // BPTT caches (one entry per timestep of the last ForwardSequence).
  // cache_inputs_ is a view of the caller's input sequence (see the
  // ForwardSequence lifetime contract); the rest are owned snapshots of
  // state the forward pass itself produced.
  const std::vector<Matrix>* cache_inputs_ = nullptr;
  std::vector<Matrix> cache_h_prev_;
  std::vector<Matrix> cache_c_prev_;
  std::vector<Matrix> cache_gates_;   // post-activation [i f g o]
  std::vector<Matrix> cache_tanh_c_;  // tanh(c_t)

  // Computes gate activations for one step into `gates` and the new h/c.
  void StepCompute(const Matrix& x, const Matrix& h_prev, const Matrix& c_prev,
                   Matrix* gates, Matrix* h_new, Matrix* c_new) const;
};

// A stack of LSTM layers; layer i feeds layer i+1.
class StackedLstm {
 public:
  StackedLstm() = default;
  StackedLstm(size_t in_dim, size_t hidden_dim, size_t num_layers, Rng& rng);

  size_t NumLayers() const { return layers_.size(); }
  size_t HiddenDim() const { return layers_.empty() ? 0 : layers_[0].HiddenDim(); }
  size_t InDim() const { return layers_.empty() ? 0 : layers_[0].InDim(); }

  // Whole-sequence forward from zero state; `outputs` receives the top
  // layer's hidden states. `inputs` must stay alive and unmodified until the
  // matching BackwardSequence returns (see LstmLayer::ForwardSequence).
  void ForwardSequence(const std::vector<Matrix>& inputs, std::vector<Matrix>* outputs);

  // Backward through all layers; input gradients are discarded.
  void BackwardSequence(const std::vector<Matrix>& doutputs);

  // Single-step inference; `state` must have NumLayers() entries and is
  // updated in place. `out` receives the top layer's new hidden state.
  void StepForward(const Matrix& x, LstmState* state, Matrix* out) const;

  // Zero-allocation batch-1 step (`state` batch must be 1). Updates `state`
  // in place; the top layer's new hidden state is state->h.back().Row(0) —
  // no inter-layer copies are made. `gates`/`acc` are caller scratch of
  // 4*HiddenDim() floats each.
  void StepForwardFast(const float* x, LstmState* state, float* gates, float* acc) const;

  // Batched multi-stream step across all layers: `state` holds one (B, H)
  // h and c matrix per layer, updated in place (layer l > 0 reads layer
  // l-1's just-written h matrix directly — no inter-layer copies). `gates`
  // is shared caller scratch, resized to (B, 4*HiddenDim()). Row r is
  // bitwise-identical to a batch-1 step on that stream alone.
  void StepForwardBatch(const Matrix& x, LstmState* state, Matrix* gates) const;

  LstmState ZeroState(size_t batch) const;

  std::vector<Matrix*> Params();
  std::vector<const Matrix*> Params() const;
  std::vector<Matrix*> Grads();
  void ZeroGrads();

  void Save(std::ostream& out) const;
  void Load(std::istream& in);

 private:
  std::vector<LstmLayer> layers_;
  // Per-layer input caches reused during BackwardSequence.
  std::vector<std::vector<Matrix>> layer_outputs_;
};

}  // namespace cloudgen

#endif  // SRC_NN_LSTM_H_
