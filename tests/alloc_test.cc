// Enforces the zero-allocation guarantee of the generation step: once a
// generator's workspace buffers are warm, stepping the network and sampling
// the next token must perform no heap allocation at all — for any network,
// with no preparation step after construction, Load() or a write through
// Params().
//
// The check instruments the global allocator: operator new/new[] bump an
// atomic counter while a test has counting enabled. Assertions run strictly
// outside the counted region (gtest itself allocates freely).
#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/encoding.h"
#include "src/glm/features.h"
#include "src/nn/activations.h"
#include "src/nn/sequence_network.h"
#include "src/obs/metrics.h"
#include "src/tensor/matrix.h"
#include "src/util/rng.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) {
    throw std::bad_alloc();
  }
  return ptr;
}

// RAII guard: counts allocations from construction to Stop()/destruction.
class AllocationCounter {
 public:
  AllocationCounter() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationCounter() { g_counting.store(false, std::memory_order_relaxed); }

  size_t Stop() {
    g_counting.store(false, std::memory_order_relaxed);
    return g_allocations.load(std::memory_order_relaxed);
  }
};

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace cloudgen {
namespace {

SequenceNetwork MakeNetwork(Rng& rng, size_t input_dim, size_t output_dim,
                            size_t factored_clusters = 0) {
  SequenceNetworkConfig config;
  config.input_dim = input_dim;
  config.hidden_dim = 24;
  config.num_layers = 2;
  config.output_dim = output_dim;
  config.factored_clusters = factored_clusters;
  return SequenceNetwork(config, rng);
}

TEST(AllocFree, PackedStepLogitsSteadyStateAllocatesNothing) {
  Rng rng(31);
  SequenceNetwork network = MakeNetwork(rng, 8, 9);

  LstmState state = network.MakeState(1);
  StepWorkspace ws;
  Matrix x(1, 8);
  x.RandomUniform(rng, 1.0f);
  Matrix logits;
  // Warm-up sizes the workspace and logits buffers.
  for (int i = 0; i < 4; ++i) {
    network.StepLogits(x, &state, &logits, &ws);
  }

  size_t allocations = 0;
  {
    AllocationCounter counter;
    for (int i = 0; i < 512; ++i) {
      network.StepLogits(x, &state, &logits, &ws);
    }
    allocations = counter.Stop();
  }
  EXPECT_EQ(allocations, 0u) << "workspace step allocated on the heap";
}

// A network needs no preparation step: straight from its constructor, right
// after a weight write through Params(), and fresh from Load(), the step
// with a warm workspace runs dense (StepLogits) and factored (StepRecurrent)
// networks without touching the heap.
TEST(AllocFree, WorkspaceRouteNeedsNoPreparation) {
  for (const size_t clusters : {size_t{0}, size_t{3}}) {
    for (const std::string origin : {"constructed", "params", "loaded"}) {
      SCOPED_TRACE(origin + (clusters > 0 ? " factored" : " dense"));
      Rng rng(36);
      SequenceNetwork network = MakeNetwork(rng, 8, 9, clusters);
      if (origin == "loaded") {
        std::stringstream stream;
        network.Save(stream);
        SequenceNetwork loaded;
        loaded.Load(stream);
        network = std::move(loaded);
      }
      LstmState state = network.MakeState(1);
      StepWorkspace ws;
      Matrix x(1, 8);
      x.RandomUniform(rng, 1.0f);
      Matrix logits;
      const auto step = [&] {
        if (network.IsFactored()) {
          network.StepRecurrent(x, &state, &ws);
        } else {
          network.StepLogits(x, &state, &logits, &ws);
        }
      };
      for (int i = 0; i < 4; ++i) {
        step();  // Warm-up sizes the workspace and logits buffers.
      }
      if (origin == "params") {
        network.Params()[0]->Data()[0] += 0.25f;
      }

      size_t allocations = 0;
      {
        AllocationCounter counter;
        for (int i = 0; i < 64; ++i) {
          step();
        }
        allocations = counter.Stop();
      }
      EXPECT_EQ(allocations, 0u) << "workspace step allocated on the heap";
    }
  }
}

// The full per-token hot loop of a flavor generator: encode the previous
// token, step the network, softmax into the workspace, sample, and record
// telemetry. All of it must be allocation-free in steady state.
TEST(AllocFree, FullTokenLoopSteadyStateAllocatesNothing) {
  Rng rng(32);
  const size_t num_flavors = 6;
  FlavorInputEncoder encoder(FlavorVocab(num_flavors), TemporalFeatureEncoder(2));
  SequenceNetwork network = MakeNetwork(rng, encoder.Dim(), num_flavors + 1);

  LstmState state = network.MakeState(1);
  StepWorkspace ws;
  Matrix x(1, encoder.Dim());
  Matrix logits;
  obs::Counter& tokens = obs::Registry::Global().GetCounter("gen.tokens");
  obs::Histogram& step_hist =
      obs::Registry::Global().GetHistogram("gen.step_ns", obs::StepLatencyBucketsNs());
  Rng sample_rng(33);

  size_t prev_token = num_flavors;  // Start from EOB, like the generator.
  auto run_token = [&](int64_t period) {
    encoder.EncodeInto(prev_token, period, 1, x.Row(0));
    network.StepLogits(x, &state, &logits, &ws);
    MaxShiftedExp(logits.Row(0), logits.Cols(), &ws.probs);
    prev_token = sample_rng.Categorical(ws.probs);
    tokens.Add(1);
    step_hist.Observe(1000.0);
  };
  for (int64_t t = 0; t < 4; ++t) {
    run_token(t);  // Warm-up: workspace buffers and metric shards.
  }

  size_t allocations = 0;
  {
    AllocationCounter counter;
    for (int64_t t = 0; t < 512; ++t) {
      run_token(t % 288);
    }
    allocations = counter.Stop();
  }
  EXPECT_EQ(allocations, 0u) << "token hot loop allocated on the heap";
}

// The batched multi-stream step: once the workspace has seen its high-water
// batch size, reshaping to any smaller (ragged) row count and stepping must
// not touch the heap — Matrix::Resize and LstmState reshaping reuse capacity.
TEST(AllocFree, BatchedStepSteadyStateAllocatesNothing) {
  Rng rng(35);
  SequenceNetwork network = MakeNetwork(rng, 8, 9);

  BatchStepWorkspace ws;
  constexpr size_t kMaxRows = 16;  // High-water batch size.
  network.EnsureBatchStep(kMaxRows, &ws);
  ws.x.RandomUniform(rng, 1.0f);
  for (int i = 0; i < 4; ++i) {
    network.StepBatch(&ws);  // Warm-up sizes every buffer.
  }

  size_t allocations = 0;
  {
    AllocationCounter counter;
    for (int i = 0; i < 256; ++i) {
      const size_t rows = 1 + static_cast<size_t>(i) % kMaxRows;
      network.EnsureBatchStep(rows, &ws);
      network.StepBatch(&ws);
    }
    allocations = counter.Stop();
  }
  EXPECT_EQ(allocations, 0u) << "batched step path allocated on the heap";
}

// Sanity check on the instrumentation itself: MakeState builds fresh
// matrices, so it allocates by construction and the counter must see it.
TEST(AllocFree, CounterObservesAllocations) {
  Rng rng(34);
  SequenceNetwork network = MakeNetwork(rng, 8, 9);

  size_t allocations = 0;
  {
    AllocationCounter counter;
    for (int i = 0; i < 16; ++i) {
      LstmState state = network.MakeState(1);
    }
    allocations = counter.Stop();
  }
  EXPECT_GT(allocations, 0u) << "allocation counter is not observing the allocator";
}

}  // namespace
}  // namespace cloudgen
