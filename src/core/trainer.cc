#include "src/core/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string>

#include "src/nn/losses.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_span.h"
#include "src/util/check.h"
#include "src/util/log.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace cloudgen {

SequenceBatching::SequenceBatching(size_t num_steps, SequenceBatchingSpec spec)
    : seq_len_(spec.seq_len), batch_size_(spec.batch_size) {
  CG_CHECK(num_steps > 0);
  CG_CHECK(spec.seq_len > 0 && spec.batch_size > 0);
  // Shrink the layout for tiny datasets so at least one minibatch exists.
  while (seq_len_ > 1 && num_steps / seq_len_ == 0) {
    seq_len_ /= 2;
  }
  size_t num_seqs = num_steps / seq_len_;
  CG_CHECK_MSG(num_seqs > 0, "dataset smaller than a single sequence");
  batch_size_ = std::min(batch_size_, num_seqs);
  num_minibatches_ = num_seqs / batch_size_;
}

size_t SequenceBatching::StepIndex(size_t mb, size_t t, size_t b) const {
  CG_DCHECK(mb < num_minibatches_ && t < seq_len_ && b < batch_size_);
  const size_t seq = mb * batch_size_ + b;
  return seq * seq_len_ + t;
}

std::vector<size_t> SequenceBatching::EpochOrder(Rng& rng) const {
  std::vector<size_t> order(num_minibatches_);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

namespace {

// Fixed shard ceiling: a function of nothing but this constant and the batch
// size, so the gradient-reduction order (and therefore training) cannot
// depend on how many threads happen to be available.
constexpr size_t kMaxBpttShards = 8;

// Rows [r0, r1) of a row-major matrix are one contiguous block.
Matrix SliceRows(const Matrix& m, size_t r0, size_t r1) {
  Matrix out(r1 - r0, m.Cols());
  std::copy(m.Row(r0), m.Row(r0) + (r1 - r0) * m.Cols(), out.Data());
  return out;
}

}  // namespace

DataParallelBptt::DataParallelBptt(SequenceNetwork* network, size_t batch_size)
    : network_(network), batch_size_(batch_size) {
  CG_CHECK(network != nullptr);
  CG_CHECK(batch_size > 0);
  const size_t num_shards = std::min(batch_size, kMaxBpttShards);
  row_splits_.resize(num_shards + 1);
  for (size_t s = 0; s <= num_shards; ++s) {
    row_splits_[s] = batch_size * s / num_shards;
  }
  // Shard 0 runs on the main network; shards 1..S-1 get replicas.
  if (num_shards > 1) {
    replicas_.assign(num_shards - 1, *network);
  }
}

double DataParallelBptt::Run(const std::vector<Matrix>& inputs, const ShardLossFn& loss_fn) {
  CG_CHECK(!inputs.empty());
  CG_CHECK(inputs[0].Rows() == batch_size_);
  const size_t num_shards = NumShards();
  const size_t steps = inputs.size();
  network_->ZeroGrads();

  if (num_shards == 1) {
    std::vector<Matrix> logits;
    std::vector<Matrix> dlogits(steps);
    network_->ForwardSequence(inputs, &logits);
    const double loss = loss_fn(0, batch_size_, logits, &dlogits);
    network_->BackwardSequence(dlogits);
    return loss;
  }

  // Refresh replica weights from the main network (the optimizer only ever
  // steps the main copy).
  const std::vector<Matrix*> main_params = network_->Params();
  for (SequenceNetwork& replica : replicas_) {
    const std::vector<Matrix*> replica_params = replica.Params();
    for (size_t p = 0; p < main_params.size(); ++p) {
      *replica_params[p] = *main_params[p];
    }
  }

  std::vector<double> shard_loss(num_shards, 0.0);
  GlobalThreadPool().ParallelFor(0, num_shards, [&](size_t s) {
    SequenceNetwork& net = s == 0 ? *network_ : replicas_[s - 1];
    const size_t r0 = row_splits_[s];
    const size_t r1 = row_splits_[s + 1];
    std::vector<Matrix> shard_inputs(steps);
    for (size_t t = 0; t < steps; ++t) {
      shard_inputs[t] = SliceRows(inputs[t], r0, r1);
    }
    net.ZeroGrads();
    std::vector<Matrix> logits;
    std::vector<Matrix> dlogits(steps);
    net.ForwardSequence(shard_inputs, &logits);
    shard_loss[s] = loss_fn(r0, r1, logits, &dlogits);
    net.BackwardSequence(dlogits);
  });

  // Reduce replica gradients into the main network in ascending shard order;
  // this fixed order keeps the float sums identical for every thread count.
  const std::vector<Matrix*> main_grads = network_->Grads();
  for (size_t s = 1; s < num_shards; ++s) {
    const std::vector<Matrix*> replica_grads = replicas_[s - 1].Grads();
    for (size_t g = 0; g < main_grads.size(); ++g) {
      main_grads[g]->Add(*replica_grads[g]);
    }
  }
  double loss = 0.0;
  for (size_t s = 0; s < num_shards; ++s) {
    loss += shard_loss[s];
  }
  return loss;
}

ShardCounts CountTargets(const std::vector<int32_t>& targets, size_t r0, size_t r1) {
  ShardCounts counts;
  for (size_t b = 0; b < targets.size(); ++b) {
    if (targets[b] == kIgnoreTarget) {
      continue;
    }
    ++counts.all;
    counts.shard += static_cast<size_t>(b >= r0 && b < r1);
  }
  return counts;
}

void AddShardShare(double mean, ShardCounts counts, size_t steps, Matrix* dlogits,
                   double* sum) {
  const float inv_steps = 1.0f / static_cast<float>(steps);
  const float f = counts.all == 0 ? 0.0f
                                  : static_cast<float>(counts.shard) /
                                        static_cast<float>(counts.all) * inv_steps;
  dlogits->Scale(f);
  *sum += mean * static_cast<double>(f);
}

namespace {

// Everything a snapshot or checkpoint holds: the learning rate and the
// cumulative rollback count (so a resumed run keeps its watchdog history),
// then the network, the Adam state and the Rng.
struct TrainingState {
  float lr;
  int32_t rollbacks;
  SequenceNetwork* network;
  Adam* optimizer;
  Rng* rng;

  std::string Serialize() const {
    std::ostringstream out(std::ios::binary);
    out.write(reinterpret_cast<const char*>(&lr), sizeof(lr));
    out.write(reinterpret_cast<const char*>(&rollbacks), sizeof(rollbacks));
    network->Save(out);
    optimizer->SaveState(out);
    rng->SaveState(out);
    return std::move(out).str();
  }

  // A watchdog rollback restores the state but keeps the live rollback count
  // (restore_rollbacks=false).
  void Restore(const std::string& payload, bool restore_rollbacks) {
    std::istringstream in(payload, std::ios::binary);
    in.read(reinterpret_cast<char*>(&lr), sizeof(lr));
    int32_t saved_rollbacks = 0;
    in.read(reinterpret_cast<char*>(&saved_rollbacks), sizeof(saved_rollbacks));
    if (restore_rollbacks) {
      rollbacks = saved_rollbacks;
    }
    network->Load(in);
    optimizer->LoadState(in);
    rng->LoadState(in);
    CG_CHECK_MSG(static_cast<bool>(in), "corrupt training snapshot");
  }
};

// A checkpoint resumes only into a network of the shape that wrote it.
// Loading another shape would abort mid-parse or leave Adam stepping
// mismatched matrices, so before anything is read the checkpoint must be as
// long as the live state's serialization and carry the live network's
// header byte for byte. SequenceNetwork::Save leads with that header: input,
// hidden, layers and output widths, or for a factored network a sentinel
// word, the same four widths and the cluster count.
Status CheckResumeShape(const std::string& payload, const std::string& live,
                        const SequenceNetwork& network, const std::string& path) {
  const size_t at = sizeof(float) + sizeof(int32_t);
  const size_t header = (network.IsFactored() ? 6 : 4) * sizeof(uint64_t);
  if (payload.size() == live.size() &&
      std::memcmp(payload.data() + at, live.data() + at, header) == 0) {
    return OkStatus();
  }
  const SequenceNetworkConfig& shape = network.Config();
  return FailedPreconditionError(StrFormat(
      "checkpoint %s was written for another model shape than this run's (input %zu, "
      "hidden %zu, layers %zu, output %zu, factored clusters %zu); remove it to start "
      "over",
      path.c_str(), shape.input_dim, shape.hidden_dim, shape.num_layers,
      shape.output_dim, shape.factored_clusters));
}

}  // namespace

Status TrainSequenceNetwork(const TrainerIdentity& trainer, const SequenceTrainConfig& config,
                            size_t num_steps, const MinibatchFillFn& fill,
                            const DataParallelBptt::ShardLossFn& shard_loss,
                            SequenceNetwork* network, Rng& rng) {
  const TrainRecoveryConfig& recovery = config.recovery;
  CG_CHECK(recovery.lr_backoff > 0.0f && recovery.lr_backoff < 1.0f);
  const std::string context = std::string(trainer.label) + " training";
  Adam optimizer(network->Params(), network->Grads(), config.adam);
  const SequenceBatching batching(num_steps, config.batching);
  std::vector<Matrix> inputs(batching.SeqLen(),
                             Matrix(batching.BatchSize(), network->Config().input_dim));
  DataParallelBptt bptt(network, batching.BatchSize());

  // Telemetry (observe-only: never feeds back into training).
  obs::Registry& registry = obs::Registry::Global();
  const std::string prefix = std::string(trainer.span) + ".";
  obs::Series& loss_series = registry.GetSeries(prefix + "loss");
  obs::Series& grad_series = registry.GetSeries(prefix + "grad_norm");
  obs::Series& lr_series = registry.GetSeries(prefix + "lr");
  obs::Series& rate_series = registry.GetSeries(prefix + "rows_per_sec");
  obs::Counter& minibatch_counter = registry.GetCounter(prefix + "minibatches");
  obs::Histogram& epoch_hist = registry.GetHistogram("time.train_epoch_ms");
  obs::Counter& rollback_counter = registry.GetCounter("train.rollbacks");
  obs::Counter& resume_counter = registry.GetCounter("train.resumes");
  obs::Counter& write_counter = registry.GetCounter("train.checkpoint_writes");
  obs::Counter& write_failure_counter = registry.GetCounter("train.checkpoint_write_failures");

  CG_SPAN(trainer.span);
  Timer timer;
  // Resume from the checkpoint, or snapshot the initial state.
  TrainingState state{config.adam.learning_rate, 0, network, &optimizer, &rng};
  std::string last_good = state.Serialize();
  size_t epoch = 0;
  if (recovery.resume && !recovery.checkpoint_path.empty()) {
    uint64_t next_epoch = 0;
    std::string payload;
    const Status read = TrainCheckpoint::Read(recovery.checkpoint_path,
                                              trainer.checkpoint_tag, &next_epoch, &payload);
    if (read.ok()) {
      CG_RETURN_IF_ERROR(
          CheckResumeShape(payload, last_good, *network, recovery.checkpoint_path)
              .WithContext(context));
      state.Restore(payload, /*restore_rollbacks=*/true);
      last_good = std::move(payload);
      epoch = static_cast<size_t>(next_epoch);
      resume_counter.Add(1);
      if (state.rollbacks > 0) {
        CG_LOGF_WARN("resumed run had already rolled back %d time(s) (max %d)",
                     state.rollbacks, recovery.max_rollbacks);
      }
      CG_LOGF_INFO("resuming from %s at epoch %zu (lr=%.2e, rollbacks=%d)",
                   recovery.checkpoint_path.c_str(), epoch, static_cast<double>(state.lr),
                   state.rollbacks);
    } else if (read.code() == StatusCode::kNotFound) {
      CG_LOG_INFO("no checkpoint to resume from; starting fresh (" +
                  recovery.checkpoint_path + ")");
    } else {
      CG_LOG_WARN("ignoring unusable checkpoint: " + read.ToString());
    }
  }

  double best_loss = 0.0;
  bool have_best = false;
  while (epoch < config.epochs) {
    CG_SPAN(trainer.epoch_span);
    ScopedTimer epoch_timer(&epoch_hist);
    const float epoch_lr = state.lr;
    optimizer.SetLearningRate(epoch_lr);
    double epoch_loss = 0.0;
    size_t epoch_minibatches = 0;
    bool diverged = false;
    for (size_t mb : batching.EpochOrder(rng)) {
      fill(batching, mb, &inputs);
      const double loss = bptt.Run(inputs, shard_loss);
      MaybeInjectGradientFault(network);
      optimizer.Step();
      if (!std::isfinite(loss) || !std::isfinite(optimizer.LastGradNorm())) {
        // The update that just happened is contaminated; bail out of the
        // epoch so the watchdog can roll the whole state back.
        diverged = true;
        break;
      }
      epoch_loss += loss;
      ++epoch_minibatches;
      minibatch_counter.Add(1);
    }
    const double mean_loss = epoch_loss / std::max<size_t>(1, epoch_minibatches);

    // Divergence watchdog: roll a NaN/Inf or exploded epoch back to the last
    // good snapshot with a backed-off learning rate, and rerun it.
    const bool exploded =
        have_best && mean_loss > recovery.divergence_factor * (best_loss + 1.0);
    if (diverged || !std::isfinite(mean_loss) || exploded) {
      ++state.rollbacks;
      rollback_counter.Add(1);
      if (state.rollbacks > recovery.max_rollbacks) {
        return AbortedError(StrFormat(
                                "training diverged %d times (last epoch %zu, loss %g); "
                                "giving up",
                                state.rollbacks, epoch, mean_loss))
            .WithContext(context);
      }
      state.Restore(last_good, /*restore_rollbacks=*/false);
      const float backed_off = state.lr * recovery.lr_backoff;
      CG_LOGF_WARN(
          "divergence watchdog: epoch %zu %s (loss %g); rolled back, lr %.2e -> %.2e "
          "(rollback %d/%d)",
          epoch, diverged ? "hit NaN/Inf" : "exploded", mean_loss,
          static_cast<double>(state.lr), static_cast<double>(backed_off), state.rollbacks,
          recovery.max_rollbacks);
      state.lr = backed_off;
      continue;
    }
    if (!have_best || mean_loss < best_loss) {
      best_loss = mean_loss;
      have_best = true;
    }

    // Post-epoch LR decay, applied before the snapshot so resume picks up the
    // rate the next epoch would have used.
    state.lr *= config.lr_decay;
    last_good = state.Serialize();
    if (!recovery.checkpoint_path.empty()) {
      const Status written = TrainCheckpoint::Write(
          recovery.checkpoint_path, trainer.checkpoint_tag, epoch + 1, last_good);
      if (written.ok()) {
        write_counter.Add(1);
      } else {
        // Best-effort: a failed checkpoint write (e.g. injected io_write
        // fault) must not kill training, and the atomic write left any
        // previous checkpoint intact.
        write_failure_counter.Add(1);
        CG_LOG_WARN("checkpoint write failed: " + written.ToString());
      }
    }

    const double epoch_seconds = epoch_timer.ElapsedSeconds();
    const double rows =
        static_cast<double>(epoch_minibatches * batching.BatchSize() * batching.SeqLen());
    loss_series.Append(static_cast<double>(epoch), mean_loss);
    grad_series.Append(static_cast<double>(epoch), optimizer.LastGradNorm());
    lr_series.Append(static_cast<double>(epoch), static_cast<double>(epoch_lr));
    rate_series.Append(static_cast<double>(epoch),
                       epoch_seconds > 0.0 ? rows / epoch_seconds : 0.0);
    CG_LOGF_INFO("%s epoch %zu/%zu: loss=%.4f (%.1fs elapsed)", trainer.label, epoch + 1,
                 config.epochs, mean_loss, timer.ElapsedSeconds());
    ++epoch;
    if (recovery.stop_after_epoch > 0 && epoch >= recovery.stop_after_epoch &&
        epoch < config.epochs) {
      CG_LOGF_WARN("stop_after_epoch: halting after epoch %zu of %zu", epoch,
                   config.epochs);
      break;
    }
  }
  return OkStatus();
}

}  // namespace cloudgen
