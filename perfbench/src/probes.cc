// Layer probes: each times one library call at the shapes and counts an op
// was observed to use, so the op's time can be split by layer. They run after
// the timed ops, never inside them.
#include <immintrin.h>

#include <cmath>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/core/trainer.h"
#include "src/nn/activations.h"
#include "src/nn/adam.h"
#include "src/nn/losses.h"
#include "src/survival/interpolation.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using cloudgen::Matrix;
using cloudgen::SequenceNetwork;

volatile double g_sink = 0.0;  // Keeps probe results observable.

// Median seconds per call of `fn`, net of the steal share over all reps (the
// same basis as the end-to-end times the probes are subtracted from).
template <typename Fn>
double SecondsPerRep(int reps, Fn&& fn) {
  fn();  // Warm caches and lazily sized scratch.
  std::vector<double> times;
  const CpuTicks before = ReadCpuTicks();
  for (int r = 0; r < reps; ++r) {
    const double t0 = NowSec();
    fn();
    times.push_back(NowSec() - t0);
  }
  return Net(Median(times), StealShare(before, ReadCpuTicks()));
}

Matrix Filled(size_t rows, size_t cols, cloudgen::Rng& rng) {
  Matrix m(rows, cols);
  m.RandomUniform(rng, 0.5f);
  return m;
}

// Per-row step, GEMM and activation costs of one network at `rows` rows.
struct NetCost {
  double step = 0.0;
  double gemm = 0.0;
  double activation = 0.0;
  double flops = 0.0;  // Per row.
};

NetCost ProbeNet(const SequenceNetwork& net, size_t rows, int reps) {
  const cloudgen::SequenceNetworkConfig& cfg = net.Config();
  const size_t h = cfg.hidden_dim;
  cloudgen::Rng rng(7);
  NetCost cost;
  const double n = static_cast<double>(rows);

  if (rows == 1) {
    // The single-stream route: StepLogits on the packed GEMV path.
    const Matrix x = Filled(1, cfg.input_dim, rng);
    cloudgen::LstmState state = net.MakeState(1);
    Matrix logits;
    cloudgen::StepWorkspace ws;
    cost.step = SecondsPerRep(reps, [&] {
      for (int i = 0; i < 64; ++i) {
        net.StepLogits(x, &state, &logits, &ws);
      }
    }) / 64.0;
  } else {
    cloudgen::BatchStepWorkspace ws;
    net.EnsureBatchStep(rows, &ws);
    ws.x = Filled(rows, cfg.input_dim, rng);
    cost.step = SecondsPerRep(reps, [&] { net.StepBatch(&ws); }) / n;
  }

  // The same products one step issues: per layer x*Wx and h*Wh into the
  // gates, then the dense head.
  struct Product {
    Matrix a, b, c;
  };
  std::vector<Product> products;
  size_t in = cfg.input_dim;
  for (size_t l = 0; l < cfg.num_layers; ++l) {
    products.push_back({Filled(rows, in, rng), Filled(in, 4 * h, rng), Matrix(rows, 4 * h)});
    products.push_back({Filled(rows, h, rng), Filled(h, 4 * h, rng), Matrix(rows, 4 * h)});
    cost.flops += 2.0 * static_cast<double>((in + h) * 4 * h);
    in = h;
  }
  products.push_back({Filled(rows, h, rng), Filled(h, cfg.output_dim, rng),
                      Matrix(rows, cfg.output_dim)});
  cost.flops += 2.0 * static_cast<double>(h * cfg.output_dim);
  cost.gemm = SecondsPerRep(reps, [&] {
    for (Product& p : products) {
      cloudgen::Gemm(false, false, 1.0f, p.a, p.b, 0.0f, &p.c);
    }
  }) / n;

  // Gate nonlinearities: sigmoid over i, f, o and tanh over g and c, per layer.
  Matrix sig = Filled(rows, 3 * h, rng);
  Matrix tanh_in = Filled(rows, 2 * h, rng);
  cost.activation = SecondsPerRep(reps, [&] {
    for (size_t l = 0; l < cfg.num_layers; ++l) {
      cloudgen::SigmoidInPlace(&sig);
      cloudgen::TanhInPlace(&tanh_in);
    }
  }) / n;
  g_sink = g_sink + sig.At(0, 0) + tanh_in.At(0, 0);
  return cost;
}

}  // namespace

double PeakGflops() {
#if defined(__AVX512F__)
  using Vec = __m512;
  constexpr int kLanes = 16;
  auto set1 = [](float v) { return _mm512_set1_ps(v); };
  auto fma = [](Vec a, Vec b, Vec c) { return _mm512_fmadd_ps(a, b, c); };
  auto lane0 = [](Vec v) { return _mm512_cvtss_f32(v); };
#elif defined(__AVX__) && defined(__FMA__)
  using Vec = __m256;
  constexpr int kLanes = 8;
  auto set1 = [](float v) { return _mm256_set1_ps(v); };
  auto fma = [](Vec a, Vec b, Vec c) { return _mm256_fmadd_ps(a, b, c); };
  auto lane0 = [](Vec v) { return _mm256_cvtss_f32(v); };
#else
  using Vec = float;
  constexpr int kLanes = 1;
  auto set1 = [](float v) { return v; };
  auto fma = [](Vec a, Vec b, Vec c) { return std::fma(a, b, c); };
  auto lane0 = [](Vec v) { return v; };
#endif
  // Twelve independent chains hide FMA latency; everything stays in registers.
  constexpr int kChains = 12;
  constexpr long kIters = 16'000'000;
  volatile float seed = 0.999f;
  const Vec mul = set1(seed);
  const Vec add = set1(1e-3f * seed);
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Vec acc[kChains];
    for (int k = 0; k < kChains; ++k) {
      acc[k] = set1(static_cast<float>(k));
    }
    const double t0 = NowSec();
    for (long i = 0; i < kIters; ++i) {
      for (int k = 0; k < kChains; ++k) {
        acc[k] = fma(acc[k], mul, add);
      }
    }
    const double dt = NowSec() - t0;
    float total = 0.0f;
    for (int k = 0; k < kChains; ++k) {
      total += lane0(acc[k]);
    }
    g_sink = g_sink + total;
    best = std::max(best, 2.0 * kLanes * kChains * static_cast<double>(kIters) / dt / 1e9);
  }
  return best;
}

StepProbe ProbeStep(const cloudgen::WorkloadModel& model, size_t rows, double flavor_share,
                    int reps) {
  rows = std::max<size_t>(1, rows);
  const NetCost f = ProbeNet(model.FlavorModel().Network(), rows, reps);
  const NetCost l = ProbeNet(model.LifetimeModel().Network(), rows, reps);
  const double wf = flavor_share;
  const double wl = 1.0 - flavor_share;
  StepProbe probe;
  probe.step_us_per_row = 1e6 * (wf * f.step + wl * l.step);
  probe.gemm_us_per_row = 1e6 * (wf * f.gemm + wl * l.gemm);
  probe.activation_us_per_row = 1e6 * (wf * f.activation + wl * l.activation);
  probe.gemm_gflops = (wf * f.flops + wl * l.flops) / (wf * f.gemm + wl * l.gemm) / 1e9;
  return probe;
}

SamplingProbe ProbeSampling(const cloudgen::WorkloadModel& model, int64_t from_period,
                            int64_t periods, uint64_t seed) {
  constexpr int kCalls = 20000;
  cloudgen::Rng rng(seed);
  SamplingProbe probe;
  double total = 0.0;

  const cloudgen::LifetimeBinning& binning = model.LifetimeModel().Binning();
  probe.duration_us = 1e6 / kCalls * NetSeconds([&] {
    for (int i = 0; i < kCalls; ++i) {
      total += cloudgen::SampleDurationInBin(
          binning, static_cast<size_t>(i) % binning.NumBins(), cloudgen::Interpolation::kCdi,
          rng);
    }
  });

  const cloudgen::BatchArrivalModel& arrivals = model.ArrivalModel();
  probe.arrival_draw_us = 1e6 / kCalls * NetSeconds([&] {
    for (int i = 0; i < kCalls; ++i) {
      const int64_t period = from_period + i % std::max<int64_t>(1, periods);
      total += static_cast<double>(
          arrivals.SampleCount(period, 1 + i % arrivals.HistoryDays(), rng));
    }
  });

  std::vector<double> weights(model.Flavors().size() + 1);
  for (double& w : weights) {
    w = std::exp(3.0 * rng.NextDouble());
  }
  probe.categorical_us = 1e6 / (5 * kCalls) * NetSeconds([&] {
    for (int i = 0; i < 5 * kCalls; ++i) {
      total += static_cast<double>(rng.Categorical(weights));
    }
  });
  g_sink = g_sink + total;
  return probe;
}

TrainStepProbe ProbeTrainStep(const cloudgen::SequenceNetworkConfig& config, size_t seq_len,
                              size_t batch, uint64_t seed, int reps) {
  cloudgen::Rng rng(seed);
  SequenceNetwork net(config, rng);
  cloudgen::DataParallelBptt bptt(&net, batch);
  std::vector<Matrix> inputs;
  std::vector<std::vector<int32_t>> targets(seq_len);
  for (size_t t = 0; t < seq_len; ++t) {
    inputs.push_back(Filled(batch, config.input_dim, rng));
    for (size_t b = 0; b < batch; ++b) {
      targets[t].push_back(static_cast<int32_t>(rng.UniformInt(config.output_dim)));
    }
  }
  // Softmax cross-entropy at the network's output width, split by shard rows
  // the way the trainers do it.
  const auto loss = [&](size_t r0, size_t r1, const std::vector<Matrix>& logits,
                        std::vector<Matrix>* dlogits) {
    double sum = 0.0;
    std::vector<int32_t> shard;
    for (size_t t = 0; t < seq_len; ++t) {
      shard.assign(targets[t].begin() + static_cast<ptrdiff_t>(r0),
                   targets[t].begin() + static_cast<ptrdiff_t>(r1));
      sum += cloudgen::SoftmaxCrossEntropy(logits[t], shard, &(*dlogits)[t]);
      (*dlogits)[t].Scale(static_cast<float>(r1 - r0) / static_cast<float>(batch * seq_len));
    }
    return sum;
  };
  // The trainers' settings (the CLI's learning rate).
  cloudgen::AdamConfig adam_config;
  adam_config.learning_rate = 5e-3f;
  adam_config.weight_decay = 1e-6f;
  adam_config.clip_norm = 5.0f;
  cloudgen::Adam adam(net.Params(), net.Grads(), adam_config);
  std::vector<double> bptt_s;
  std::vector<double> adam_s;
  CpuTicks before;
  for (int r = 0; r <= reps; ++r) {
    if (r == 1) {
      before = ReadCpuTicks();
    }
    const double t0 = NowSec();
    g_sink = g_sink + bptt.Run(inputs, loss);
    const double t1 = NowSec();
    adam.Step();
    const double t2 = NowSec();
    if (r > 0) {  // Rep 0 warms the replicas and optimizer state.
      bptt_s.push_back(t1 - t0);
      adam_s.push_back(t2 - t1);
    }
  }
  const double steal = StealShare(before, ReadCpuTicks());
  return {1e3 * Net(Median(bptt_s), steal), 1e3 * Net(Median(adam_s), steal)};
}

}  // namespace perfbench
