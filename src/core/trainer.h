// The training recipe shared by every sequence-network trainer (§4.2).
//
// The training data for each model is one long stream of step records in
// generation order (period → batch → job). The stream is cut into
// fixed-length sequences; `batch_size` sequences are stacked into each
// minibatch (the paper uses 50 sequences of length 5000 on GPUs; the defaults
// here are CPU-sized but configurable). Hidden state is zeroed before each
// forward pass. Leftover steps that do not fill a complete minibatch are
// dropped from training (but evaluation uses a tail-padded layout so every
// step is scored exactly once).
//
// TrainSequenceNetwork runs that recipe for the flavor, lifetime and
// single-LSTM trainers. Each trainer supplies only its own parts — its
// stream length, its network, a minibatch fill and a per-shard loss — and
// the driver owns Adam, the batching, data-parallel BPTT, the epoch loop,
// checkpoint/resume, the divergence watchdog (src/core/checkpoint.h) and
// the per-epoch telemetry.
#ifndef SRC_CORE_TRAINER_H_
#define SRC_CORE_TRAINER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/nn/adam.h"
#include "src/nn/sequence_network.h"
#include "src/tensor/matrix.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace cloudgen {

struct SequenceBatchingSpec {
  size_t seq_len = 96;
  size_t batch_size = 24;
};

// Maps (minibatch, time, row) to indices of the underlying step stream.
class SequenceBatching {
 public:
  // Layout for training: complete minibatches only.
  SequenceBatching(size_t num_steps, SequenceBatchingSpec spec);

  size_t NumMinibatches() const { return num_minibatches_; }
  size_t SeqLen() const { return seq_len_; }
  size_t BatchSize() const { return batch_size_; }

  // Step index for minibatch `mb`, time `t`, row `b`.
  size_t StepIndex(size_t mb, size_t t, size_t b) const;

  // Shuffled order of minibatch indices for one epoch.
  std::vector<size_t> EpochOrder(Rng& rng) const;

 private:
  size_t seq_len_;
  size_t batch_size_;
  size_t num_minibatches_;
};

// Data-parallel minibatch BPTT.
//
// The minibatch's rows are split into a FIXED number of shards (a function of
// the batch size only, never of the thread count). Each shard runs
// forward/backward on its own replica of the network — weights copied from
// the main network, gradients accumulated into the replica's buffers — and
// the replica gradients are reduced into the main network in ascending shard
// order on the calling thread. Shard work is distributed over the global
// thread pool, but because the shard partition and the reduction order are
// fixed, training is bitwise-identical for any `--threads N`.
class DataParallelBptt {
 public:
  // Loss callback, invoked once per shard (possibly concurrently across
  // shards): given the shard's logits (T matrices covering minibatch rows
  // [row_begin, row_end)), fill `dlogits` and return the shard's loss
  // contribution. Contributions are summed in shard order, so the callback
  // must scale its loss and gradients by the shard's share of the minibatch
  // (AddShardShare).
  using ShardLossFn = std::function<double(size_t row_begin, size_t row_end,
                                           const std::vector<Matrix>& logits,
                                           std::vector<Matrix>* dlogits)>;

  // `network` must outlive the executor. `batch_size` fixes the shard
  // partition for every subsequent Run call.
  DataParallelBptt(SequenceNetwork* network, size_t batch_size);

  size_t NumShards() const { return row_splits_.size() - 1; }

  // Zeroes the main network's gradients, runs forward/backward over all
  // shards, reduces gradients, and returns the summed loss. `inputs` is T
  // matrices of shape (batch_size, input_dim).
  double Run(const std::vector<Matrix>& inputs, const ShardLossFn& loss_fn);

 private:
  SequenceNetwork* network_;
  size_t batch_size_;
  std::vector<size_t> row_splits_;        // NumShards() + 1 ascending offsets.
  std::vector<SequenceNetwork> replicas_;  // One per shard beyond the first.
};

// Loss terms one minibatch step counts (non-ignored rows for a cross-entropy,
// unmasked elements for the hazard BCE): over the whole minibatch and over
// one shard's rows.
struct ShardCounts {
  size_t all = 0;
  size_t shard = 0;
};

// Counts the entries of `targets` that are not kIgnoreTarget, over all rows
// and over the shard's rows [r0, r1).
ShardCounts CountTargets(const std::vector<int32_t>& targets, size_t r0, size_t r1);

// Every loss normalizes by its own shard-local count, so a shard's mean at
// one of `steps` time steps is rescaled by counts.shard / counts.all / steps
// to land on the exact full-minibatch normalization serial training uses.
// Scales the step's `dlogits` by that factor and adds the rescaled mean to
// `*sum`, the shard's loss.
void AddShardShare(double mean, ShardCounts counts, size_t steps, Matrix* dlogits,
                   double* sum);

// The hyperparameters every trainer shares.
struct SequenceTrainConfig {
  SequenceBatchingSpec batching;
  size_t epochs = 0;
  // Learning rate, weight decay and clip norm; the moments keep Adam's
  // defaults.
  AdamConfig adam;
  // Multiplicative learning-rate decay applied after every epoch.
  float lr_decay = 1.0f;
  TrainRecoveryConfig recovery;

  // The fields of the same names in a model config (FlavorModelConfig,
  // LifetimeModelConfig).
  template <typename ModelConfig>
  static SequenceTrainConfig Of(const ModelConfig& model) {
    SequenceTrainConfig config;
    config.batching = {model.seq_len, model.batch_size};
    config.epochs = model.epochs;
    config.adam.learning_rate = model.learning_rate;
    config.adam.weight_decay = model.weight_decay;
    config.adam.clip_norm = model.clip_norm;
    config.lr_decay = model.lr_decay;
    config.recovery = model.recovery;
    return config;
  }
};

// Names one trainer. `span` names the run's trace span and, followed by a
// '.', its metrics (train.flavor.loss, …); `epoch_span` names each epoch's
// span. ScopedSpan keeps the pointers, so both must be string literals.
// `label` leads the log lines and the error context; `checkpoint_tag` is the
// stage tag its checkpoints carry.
struct TrainerIdentity {
  const char* span;
  const char* epoch_span;
  const char* label;
  uint32_t checkpoint_tag;
};

// Writes minibatch `mb` of `batching` into `inputs` (SeqLen() matrices,
// already sized BatchSize() × the network's input width) and the trainer's
// own targets, which its ShardLossFn reads.
using MinibatchFillFn = std::function<void(const SequenceBatching& batching, size_t mb,
                                           std::vector<Matrix>* inputs)>;

// Trains `network` (already initialized from `rng`) on a stream of
// `num_steps` steps: per epoch, one `EpochOrder(rng)` shuffle, then per
// minibatch fill → BPTT → Adam step, with the divergence watchdog's verdict
// after every epoch. Resumes from `config.recovery`'s checkpoint when asked
// (FAILED_PRECONDITION, touching nothing, when it was written for another
// network shape). Fails with ABORTED when the watchdog exhausts its rollback
// budget.
Status TrainSequenceNetwork(const TrainerIdentity& trainer, const SequenceTrainConfig& config,
                            size_t num_steps, const MinibatchFillFn& fill,
                            const DataParallelBptt::ShardLossFn& shard_loss,
                            SequenceNetwork* network, Rng& rng);

}  // namespace cloudgen

#endif  // SRC_CORE_TRAINER_H_
