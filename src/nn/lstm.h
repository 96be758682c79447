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
// One forward step, StepForwardBatch, serves training and generation alike:
//  * ForwardSequence/BackwardSequence run over whole sequences with caches
//    (used by the trainer; hidden state is zeroed before each forward pass,
//    matching §4.2 of the paper). Each forward timestep is StepForwardBatch.
//  * StepForwardBatch advances B rows of an explicit LstmState by one step
//    (generation; B = 1 for a single stream or any tick group of one).
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

  // The forward step at any row count: row r of `x` (B, InDim) is stream
  // r's input and row r of `h`/`c` (B, H each) is its recurrent state,
  // updated in place. `gates` is caller-owned scratch, resized to (B, 4H)
  // when its shape differs, and holds the post-activation gates [i f g o]
  // afterwards. Row r's outputs do not depend on B or on the other rows:
  // the two GEMMs compute every output element as one k-ascending chain,
  // and every row runs the same gate activation.
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

  // One step of every layer: `state` holds one (B, H) h and c matrix per
  // layer, updated in place (layer l > 0 reads layer l-1's just-written h
  // matrix directly — no inter-layer copies). `gates` is shared caller
  // scratch, resized to (B, 4*HiddenDim()). The top layer's new hidden
  // state is state->h.back().
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
