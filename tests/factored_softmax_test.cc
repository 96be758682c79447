// Tests for the class-factored (two-level) softmax head: vocab-map
// construction, the factored distribution's normalization, bitwise agreement
// between the generation-time slice GEMVs and the training-time concat
// forward, the factored cross-entropy loss and its gradient, and
// SequenceNetwork integration (factored step routes, save/load sentinel).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/factored_softmax.h"
#include "src/nn/losses.h"
#include "src/nn/sequence_network.h"
#include "src/tensor/matrix.h"
#include "src/util/rng.h"

namespace cloudgen {
namespace {

TEST(FactoredVocabMap, BalancedMapCoversAllTokensContiguously) {
  const FactoredVocabMap map = MakeBalancedVocabMap(10, 3);
  ASSERT_EQ(map.NumClusters(), 3u);
  ASSERT_EQ(map.NumTokens(), 10u);
  EXPECT_EQ(map.SliceBegin(0), 0u);
  size_t total = 0;
  for (size_t c = 0; c < map.NumClusters(); ++c) {
    EXPECT_GT(map.SliceWidth(c), 0u);
    EXPECT_EQ(map.SliceBegin(c), total);
    total += map.SliceWidth(c);
    for (size_t t = map.SliceBegin(c); t < map.SliceBegin(c) + map.SliceWidth(c);
         ++t) {
      EXPECT_EQ(map.ClusterOf(t), c);
    }
  }
  EXPECT_EQ(total, 10u);
  // Near-equal slices: widths differ by at most one.
  EXPECT_EQ(map.SliceWidth(0), 4u);
  EXPECT_EQ(map.SliceWidth(1), 3u);
  EXPECT_EQ(map.SliceWidth(2), 3u);
}

TEST(FactoredVocabMap, DefaultClusterCountIsCeilSqrt) {
  EXPECT_EQ(MakeBalancedVocabMap(16, 0).NumClusters(), 4u);
  EXPECT_EQ(MakeBalancedVocabMap(17, 0).NumClusters(), 5u);
  // Clamped to [1, num_tokens].
  EXPECT_EQ(MakeBalancedVocabMap(3, 100).NumClusters(), 3u);
  EXPECT_EQ(MakeBalancedVocabMap(3, 1).NumClusters(), 1u);
}

// p(w) = softmax_C(u)[c(w)] * softmax_slice(v)[w] must be a normalized
// distribution over the whole vocabulary.
TEST(ClassFactoredHead, FactoredProbabilitiesNormalize) {
  Rng rng(71);
  const size_t kH = 12;
  const FactoredVocabMap map = MakeBalancedVocabMap(9, 3);
  ClassFactoredHead head(kH, map, rng);
  Matrix h(2, kH);
  h.RandomUniform(rng, 1.0f);
  Matrix concat;
  head.ForwardInference(h, &concat);
  ASSERT_EQ(concat.Rows(), 2u);
  ASSERT_EQ(concat.Cols(), head.ConcatDim());
  const size_t kC = map.NumClusters();
  for (size_t r = 0; r < concat.Rows(); ++r) {
    const float* row = concat.Row(r);
    double cz = 0.0;
    for (size_t c = 0; c < kC; ++c) {
      cz += std::exp(static_cast<double>(row[c]));
    }
    double total = 0.0;
    for (size_t c = 0; c < kC; ++c) {
      const double pc = std::exp(static_cast<double>(row[c])) / cz;
      double mz = 0.0;
      for (size_t t = map.SliceBegin(c); t < map.SliceBegin(c) + map.SliceWidth(c);
           ++t) {
        mz += std::exp(static_cast<double>(row[kC + t]));
      }
      for (size_t t = map.SliceBegin(c); t < map.SliceBegin(c) + map.SliceWidth(c);
           ++t) {
        total += pc * std::exp(static_cast<double>(row[kC + t])) / mz;
      }
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << "row " << r;
  }
}

// The generation-time per-row GEMVs must be bitwise-identical to the
// corresponding columns of the training-time concat forward — this is the
// seam that makes factored generation exactly the trained distribution.
TEST(ClassFactoredHead, SliceLogitsBitwiseMatchConcatForward) {
  Rng rng(72);
  const size_t kH = 16;
  const FactoredVocabMap map = MakeBalancedVocabMap(11, 4);
  ClassFactoredHead head(kH, map, rng);
  Matrix h(1, kH);
  h.RandomUniform(rng, 1.0f);
  Matrix concat;
  head.ForwardInference(h, &concat);
  const size_t kC = map.NumClusters();

  std::vector<float> acc(std::max(kC, map.NumTokens()));
  std::vector<float> u(kC);
  head.ClusterLogitsInto(h.Row(0), acc.data(), u.data());
  for (size_t c = 0; c < kC; ++c) {
    ASSERT_EQ(u[c], concat.Row(0)[c]) << "cluster logit " << c;
  }
  for (size_t c = 0; c < kC; ++c) {
    std::vector<float> v(map.SliceWidth(c));
    head.MemberSliceLogitsInto(h.Row(0), c, acc.data(), v.data());
    for (size_t i = 0; i < v.size(); ++i) {
      ASSERT_EQ(v[i], concat.Row(0)[kC + map.SliceBegin(c) + i])
          << "cluster " << c << " member " << i;
    }
  }
}

TEST(FactoredLoss, MatchesManualNegativeLogLikelihood) {
  Rng rng(73);
  const FactoredVocabMap map = MakeBalancedVocabMap(6, 2);
  const size_t kC = map.NumClusters();
  Matrix logits(1, kC + 6);
  logits.RandomUniform(rng, 1.0f);
  const std::vector<int32_t> targets{4};
  Matrix dlogits;
  const double loss = FactoredSoftmaxCrossEntropy(logits, targets, map, &dlogits);

  const float* row = logits.Row(0);
  const size_t c = map.ClusterOf(4);
  double cz = 0.0;
  for (size_t k = 0; k < kC; ++k) {
    cz += std::exp(static_cast<double>(row[k]));
  }
  double mz = 0.0;
  for (size_t t = map.SliceBegin(c); t < map.SliceBegin(c) + map.SliceWidth(c);
       ++t) {
    mz += std::exp(static_cast<double>(row[kC + t]));
  }
  const double want =
      -(static_cast<double>(row[c]) - std::log(cz)) -
      (static_cast<double>(row[kC + 4]) - std::log(mz));
  EXPECT_NEAR(loss, want, 1e-6);

  // Member columns outside the target's slice carry zero gradient.
  for (size_t t = 0; t < 6; ++t) {
    if (map.ClusterOf(t) != c) {
      EXPECT_EQ(dlogits.Row(0)[kC + t], 0.0f) << "token " << t;
    }
  }
}

TEST(FactoredLoss, GradientMatchesFiniteDifferences) {
  Rng rng(74);
  const FactoredVocabMap map = MakeBalancedVocabMap(5, 2);
  const size_t kCols = map.NumClusters() + 5;
  Matrix logits(2, kCols);
  logits.RandomUniform(rng, 1.0f);
  const std::vector<int32_t> targets{1, 4};
  Matrix dlogits;
  FactoredSoftmaxCrossEntropy(logits, targets, map, &dlogits);
  ASSERT_EQ(dlogits.Rows(), 2u);
  ASSERT_EQ(dlogits.Cols(), kCols);

  const float eps = 1e-3f;
  Matrix scratch;
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < kCols; ++c) {
      const float saved = logits.Row(r)[c];
      logits.Row(r)[c] = saved + eps;
      const double up = FactoredSoftmaxCrossEntropy(logits, targets, map, &scratch);
      logits.Row(r)[c] = saved - eps;
      const double down =
          FactoredSoftmaxCrossEntropy(logits, targets, map, &scratch);
      logits.Row(r)[c] = saved;
      const double numeric = (up - down) / (2.0 * static_cast<double>(eps));
      EXPECT_NEAR(dlogits.Row(r)[c], numeric, 2e-3)
          << "row " << r << " col " << c;
    }
  }
}

SequenceNetwork MakeFactoredNetwork(Rng& rng) {
  SequenceNetworkConfig config;
  config.input_dim = 8;
  config.hidden_dim = 12;
  config.num_layers = 2;
  config.output_dim = 7;
  config.factored_clusters = 3;
  return SequenceNetwork(config, rng);
}

TEST(SequenceNetwork, FactoredStepBatchRowsBitwiseMatchStepRecurrent) {
  Rng rng(75);
  SequenceNetwork network = MakeFactoredNetwork(rng);
  ASSERT_TRUE(network.IsFactored());

  constexpr size_t kRows = 5;
  Matrix inputs(kRows, 8);
  inputs.RandomUniform(rng, 1.0f);

  BatchStepWorkspace bws;
  network.EnsureBatchStep(kRows, &bws);
  for (size_t r = 0; r < kRows; ++r) {
    std::copy(inputs.Row(r), inputs.Row(r) + 8, bws.x.Row(r));
  }
  network.StepBatch(&bws);

  for (size_t r = 0; r < kRows; ++r) {
    LstmState state = network.MakeState(1);
    StepWorkspace ws;
    Matrix x(1, 8);
    std::copy(inputs.Row(r), inputs.Row(r) + 8, x.Row(0));
    network.StepRecurrent(x, &state, &ws);
    for (size_t l = 0; l < state.h.size(); ++l) {
      for (size_t i = 0; i < state.h[l].Cols(); ++i) {
        ASSERT_EQ(state.h[l].Row(0)[i], bws.state.h[l].Row(r)[i])
            << "row " << r << " layer " << l << " h[" << i << "]";
        ASSERT_EQ(state.c[l].Row(0)[i], bws.state.c[l].Row(r)[i])
            << "row " << r << " layer " << l << " c[" << i << "]";
      }
    }
  }
}

TEST(SequenceNetwork, FactoredSaveLoadRoundTripPreservesHeadAndSteps) {
  Rng rng(76);
  SequenceNetwork network = MakeFactoredNetwork(rng);

  std::stringstream buf;
  network.Save(buf);
  SequenceNetwork loaded;
  loaded.Load(buf);
  ASSERT_TRUE(loaded.IsFactored());
  EXPECT_EQ(loaded.FactoredHead().NumClusters(),
            network.FactoredHead().NumClusters());
  EXPECT_EQ(loaded.FactoredHead().NumTokens(), network.FactoredHead().NumTokens());

  Matrix x(1, 8);
  x.RandomUniform(rng, 1.0f);
  LstmState sa = network.MakeState(1);
  LstmState sb = loaded.MakeState(1);
  network.StepRecurrent(x, &sa);
  loaded.StepRecurrent(x, &sb);
  for (size_t i = 0; i < sa.h.back().Cols(); ++i) {
    ASSERT_EQ(sa.h.back().Row(0)[i], sb.h.back().Row(0)[i]) << "h[" << i << "]";
  }
  Matrix ca;
  Matrix cb;
  network.FactoredHead().ForwardInference(sa.h.back(), &ca);
  loaded.FactoredHead().ForwardInference(sb.h.back(), &cb);
  for (size_t i = 0; i < ca.Cols(); ++i) {
    ASSERT_EQ(ca.Row(0)[i], cb.Row(0)[i]) << "concat[" << i << "]";
  }
}

// A dense network's file layout is unchanged by the factored-head sentinel:
// dense saves load as dense.
TEST(SequenceNetwork, DenseSaveLoadStaysDense) {
  Rng rng(77);
  SequenceNetworkConfig config;
  config.input_dim = 8;
  config.hidden_dim = 12;
  config.num_layers = 1;
  config.output_dim = 7;
  SequenceNetwork network(config, rng);
  std::stringstream buf;
  network.Save(buf);
  SequenceNetwork loaded;
  loaded.Load(buf);
  EXPECT_FALSE(loaded.IsFactored());
  EXPECT_EQ(loaded.Config().output_dim, 7u);
}

}  // namespace
}  // namespace cloudgen
