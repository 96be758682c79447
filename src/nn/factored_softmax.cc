#include "src/nn/factored_softmax.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>
#include <utility>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace cloudgen {

size_t FactoredVocabMap::ClusterOf(size_t token) const {
  CG_DCHECK(token < NumTokens());
  // First offset strictly greater than `token`, minus one.
  const auto it = std::upper_bound(offsets.begin(), offsets.end(),
                                   static_cast<int32_t>(token));
  return static_cast<size_t>(it - offsets.begin()) - 1;
}

FactoredVocabMap MakeBalancedVocabMap(size_t num_tokens, size_t num_clusters) {
  CG_CHECK(num_tokens > 0);
  if (num_clusters == 0) {
    num_clusters = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(num_tokens))));
  }
  num_clusters = std::min(std::max<size_t>(num_clusters, 1), num_tokens);
  FactoredVocabMap map;
  map.offsets.resize(num_clusters + 1);
  const size_t base = num_tokens / num_clusters;
  const size_t extra = num_tokens % num_clusters;
  size_t off = 0;
  for (size_t c = 0; c < num_clusters; ++c) {
    map.offsets[c] = static_cast<int32_t>(off);
    off += base + (c < extra ? 1 : 0);
  }
  map.offsets[num_clusters] = static_cast<int32_t>(num_tokens);
  return map;
}

ClassFactoredHead::ClassFactoredHead(size_t in_dim, FactoredVocabMap map, Rng& rng)
    : map_(std::move(map)),
      cluster_(in_dim, map_.NumClusters(), rng),
      member_(in_dim, map_.NumTokens(), rng) {
  CG_CHECK(map_.NumTokens() > 0 && map_.NumClusters() > 0);
  CG_CHECK(map_.offsets.front() == 0);
}

void ClassFactoredHead::ForwardInference(const Matrix& h, Matrix* concat) const {
  Matrix u;
  Matrix v;
  cluster_.ForwardInference(h, &u);
  member_.ForwardInference(h, &v);
  const size_t c = map_.NumClusters();
  const size_t k = map_.NumTokens();
  concat->EnsureShape(h.Rows(), c + k);
  for (size_t r = 0; r < h.Rows(); ++r) {
    float* row = concat->Row(r);
    std::copy(u.Row(r), u.Row(r) + c, row);
    std::copy(v.Row(r), v.Row(r) + k, row + c);
  }
}

void ClassFactoredHead::Backward(const Matrix& h, const Matrix& dconcat, Matrix* dh) {
  CG_CHECK(dh != nullptr);
  const size_t c = map_.NumClusters();
  const size_t k = map_.NumTokens();
  CG_CHECK(dconcat.Cols() == c + k);
  const size_t batch = dconcat.Rows();
  du_tmp_.EnsureShape(batch, c);
  dv_tmp_.EnsureShape(batch, k);
  for (size_t r = 0; r < batch; ++r) {
    const float* row = dconcat.Row(r);
    std::copy(row, row + c, du_tmp_.Row(r));
    std::copy(row + c, row + c + k, dv_tmp_.Row(r));
  }
  cluster_.Backward(h, du_tmp_, dh);
  member_.Backward(h, dv_tmp_, &dh_tmp_);
  dh->Add(dh_tmp_);
}

void ClassFactoredHead::ClusterLogitsInto(const float* h, float* acc, float* u) const {
  cluster_.ForwardSpan(h, 0, map_.NumClusters(), acc, u);
}

void ClassFactoredHead::MemberSliceLogitsInto(const float* h, size_t cluster,
                                              float* acc, float* v) const {
  member_.ForwardSpan(h, map_.SliceBegin(cluster), map_.SliceWidth(cluster), acc, v);
}

std::vector<Matrix*> ClassFactoredHead::Params() {
  std::vector<Matrix*> params = cluster_.Params();
  for (Matrix* p : member_.Params()) {
    params.push_back(p);
  }
  return params;
}

std::vector<const Matrix*> ClassFactoredHead::Params() const {
  std::vector<const Matrix*> params = cluster_.Params();
  for (const Matrix* p : member_.Params()) {
    params.push_back(p);
  }
  return params;
}

std::vector<Matrix*> ClassFactoredHead::Grads() {
  std::vector<Matrix*> grads = cluster_.Grads();
  for (Matrix* g : member_.Grads()) {
    grads.push_back(g);
  }
  return grads;
}

void ClassFactoredHead::ZeroGrads() {
  cluster_.ZeroGrads();
  member_.ZeroGrads();
}

void ClassFactoredHead::Save(std::ostream& out) const {
  const uint64_t n = map_.offsets.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(map_.offsets.data()),
            static_cast<std::streamsize>(n * sizeof(int32_t)));
  cluster_.Save(out);
  member_.Save(out);
}

void ClassFactoredHead::Load(std::istream& in) {
  uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  CG_CHECK_MSG(static_cast<bool>(in), "ClassFactoredHead::Load: truncated stream");
  CG_CHECK_MSG(n >= 2, "ClassFactoredHead::Load: corrupt vocab map");
  map_.offsets.resize(n);
  in.read(reinterpret_cast<char*>(map_.offsets.data()),
          static_cast<std::streamsize>(n * sizeof(int32_t)));
  CG_CHECK_MSG(static_cast<bool>(in), "ClassFactoredHead::Load: truncated stream");
  CG_CHECK_MSG(map_.offsets.front() == 0, "ClassFactoredHead::Load: corrupt vocab map");
  cluster_.Load(in);
  member_.Load(in);
}

}  // namespace cloudgen
