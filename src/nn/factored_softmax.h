// Class-factored (two-level) softmax output head, after lamtram's
// SoftmaxClass: tokens are grouped into clusters and the output distribution
// factors as
//
//   p(w | h) = p_cluster(c(w) | h) * p_member(w | c(w), h)
//
// with a (H, C) cluster layer and a (H, K) member layer whose softmax is
// taken per cluster slice. Sampling a token then costs O(C + |slice|)
// instead of O(K): one cluster-logits GEMV, a categorical draw over C
// clusters, one slice GEMV (via Linear::ForwardSpan's strided columns), and
// a categorical draw within the slice. With balanced clusters and
// C = ceil(sqrt(K)) the per-token head cost is O(sqrt(K)) — the point of the
// factorization for Huawei-scale flavor vocabularies.
//
// Training uses the concatenated logits [u | v] of shape (B, C + K) — the
// cluster logits followed by the full member logits — paired with
// FactoredSoftmaxCrossEntropy (src/nn/losses.h), which softmaxes u over all
// clusters and v over the target's slice only. Generation never materializes
// the concat row.
#ifndef SRC_NN_FACTORED_SOFTMAX_H_
#define SRC_NN_FACTORED_SOFTMAX_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/nn/linear.h"
#include "src/tensor/matrix.h"

namespace cloudgen {

class Rng;

// Token → cluster assignment with contiguous per-cluster token ranges:
// cluster c owns tokens [offsets[c], offsets[c+1]). Contiguity is what lets
// the member layer evaluate one cluster as a column span of a single (H, K)
// weight matrix instead of per-cluster matrices.
struct FactoredVocabMap {
  std::vector<int32_t> offsets;  // C+1 entries; offsets[0] = 0, back() = K.

  size_t NumTokens() const {
    return offsets.empty() ? 0 : static_cast<size_t>(offsets.back());
  }
  size_t NumClusters() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  size_t SliceBegin(size_t cluster) const {
    return static_cast<size_t>(offsets[cluster]);
  }
  size_t SliceWidth(size_t cluster) const {
    return static_cast<size_t>(offsets[cluster + 1] - offsets[cluster]);
  }
  // O(log C) lookup; the trainer amortizes it per target token.
  size_t ClusterOf(size_t token) const;
};

// Balanced contiguous map over [0, num_tokens): num_clusters near-equal
// slices (first `num_tokens % num_clusters` slices get the extra token).
// num_clusters == 0 picks ceil(sqrt(num_tokens)), the classic cost-balancing
// choice; the cluster count is clamped to [1, num_tokens].
FactoredVocabMap MakeBalancedVocabMap(size_t num_tokens, size_t num_clusters);

class ClassFactoredHead {
 public:
  ClassFactoredHead() = default;
  ClassFactoredHead(size_t in_dim, FactoredVocabMap map, Rng& rng);

  bool Empty() const { return map_.NumTokens() == 0; }
  size_t InDim() const { return member_.InDim(); }
  size_t NumTokens() const { return map_.NumTokens(); }
  size_t NumClusters() const { return map_.NumClusters(); }
  size_t ConcatDim() const { return map_.NumClusters() + map_.NumTokens(); }
  const FactoredVocabMap& Map() const { return map_; }

  // Training forward: concat logits [u | v] of shape (B, C + K).
  void ForwardInference(const Matrix& h, Matrix* concat) const;

  // Backprop from d(concat) of shape (B, C + K), given the forward input h;
  // accumulates parameter gradients and writes dL/dh (required — the LSTM
  // below always needs it).
  void Backward(const Matrix& h, const Matrix& dconcat, Matrix* dh);

  // Generation-time pieces, one hidden row at a time. `acc` is caller
  // scratch (NumClusters() / slice-width floats); outputs are
  // bitwise-identical to the corresponding columns of ForwardInference.
  void ClusterLogitsInto(const float* h, float* acc, float* u) const;
  void MemberSliceLogitsInto(const float* h, size_t cluster, float* acc,
                             float* v) const;

  // Parameter access in the same style as Linear/StackedLstm. Order:
  // cluster weight, cluster bias, member weight, member bias.
  std::vector<Matrix*> Params();
  std::vector<const Matrix*> Params() const;
  std::vector<Matrix*> Grads();
  void ZeroGrads();

  void Save(std::ostream& out) const;
  void Load(std::istream& in);

 private:
  FactoredVocabMap map_;
  Linear cluster_;  // (H, C)
  Linear member_;   // (H, K)

  // Training scratch (the training path may allocate; generation never
  // touches these).
  Matrix du_tmp_;
  Matrix dv_tmp_;
  Matrix dh_tmp_;
};

}  // namespace cloudgen

#endif  // SRC_NN_FACTORED_SOFTMAX_H_
