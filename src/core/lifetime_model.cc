#include "src/core/lifetime_model.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>

#include "src/core/gen_checkpoint.h"
#include "src/core/trainer.h"
#include "src/nn/activations.h"
#include "src/nn/losses.h"
#include "src/obs/metrics.h"
#include "src/survival/hazard.h"
#include "src/util/check.h"
#include "src/util/fault.h"
#include "src/util/rng.h"
#include "src/util/sealed_file.h"
#include "src/util/strings.h"

namespace cloudgen {
namespace {

// Fills one row of the BCE target and mask matrices for an observed outcome.
void FillTargetsAndMask(size_t bin, bool censored, size_t num_bins, float* target,
                        float* mask) {
  std::fill(target, target + num_bins, 0.0f);
  std::fill(mask, mask + num_bins, 0.0f);
  for (size_t j = 0; j < bin; ++j) {
    mask[j] = 1.0f;  // Survived this bin's hazard: target 0.
  }
  if (!censored) {
    mask[bin] = 1.0f;
    target[bin] = 1.0f;  // Suffered the hazard in the event bin.
  }
}

PrevLifetime PrevFromStep(const LifetimeStep& step) {
  PrevLifetime prev;
  prev.valid = true;
  prev.bin = step.bin;
  prev.censored = step.censored;
  return prev;
}

}  // namespace

LifetimeStream BuildLifetimeStream(const Trace& trace, const LifetimeBinning& binning,
                                   int history_days) {
  LifetimeStream stream;
  const std::vector<PeriodBatches> periods = BuildBatches(trace);
  const int64_t start_day = trace.WindowStart() / kPeriodsPerDay;
  for (const PeriodBatches& period : periods) {
    const PeriodCalendar cal = DecomposePeriod(period.period);
    const int doh =
        std::clamp(static_cast<int>(cal.day_index - start_day) + 1, 1, history_days);
    for (const Batch& batch : period.batches) {
      bool first = true;
      for (size_t idx : batch.job_indices) {
        const Job& job = trace.Jobs()[idx];
        LifetimeStep step;
        step.period = period.period;
        step.doh_day = doh;
        step.flavor = job.flavor;
        step.batch_size = batch.job_indices.size();
        step.first_in_batch = first;
        first = false;
        step.bin = binning.BinOf(job.LifetimeSeconds());
        step.censored = job.censored;
        stream.steps.push_back(step);
        stream.lifetimes_seconds.push_back(job.censored ? -1.0 : job.LifetimeSeconds());
      }
    }
  }
  return stream;
}

const LifetimeBinning& LifetimeLstmModel::Binning() const {
  CG_CHECK(binning_ != nullptr);
  return *binning_;
}

void LifetimeLstmModel::EncodeStep(const LifetimeStep& step, const PrevLifetime& prev,
                                   float* out) const {
  encoder_->EncodeInto(step.period, step.doh_day, step.flavor, step.batch_size, prev, out);
}

std::vector<double> LifetimeLstmModel::LogitsToHazard(const Matrix& logits) const {
  std::vector<double> hazard;
  std::vector<double> scratch;
  LogitsToHazardInto(logits, &hazard, &scratch);
  return hazard;
}

void LifetimeLstmModel::LogitsToHazardInto(const Matrix& logits,
                                           std::vector<double>* hazard,
                                           std::vector<double>* scratch) const {
  CG_CHECK(hazard != nullptr && scratch != nullptr);
  const size_t bins = logits.Cols();
  const float* row = logits.Row(0);
  if (config_.head == LifetimeHead::kPmf) {
    // Softmax → PMF → equivalent hazard.
    const double sum = MaxShiftedExp(row, bins, scratch);
    for (double& p : *scratch) {
      p /= sum;
    }
    PmfToHazardInto(*scratch, hazard);
    return;
  }
  hazard->resize(bins);
  for (size_t j = 0; j < bins; ++j) {
    (*hazard)[j] = SigmoidScalar(row[j]);
  }
  hazard->back() = 1.0;  // Open final bin.
}

Status LifetimeLstmModel::Train(const Trace& train, const LifetimeBinning& binning,
                                int history_days, const LifetimeModelConfig& config,
                                Rng& rng) {
  config_ = config;
  history_days_ = history_days;
  num_flavors_ = train.NumFlavors();
  binning_ = std::make_unique<LifetimeBinning>(binning);
  encoder_ = std::make_unique<LifetimeInputEncoder>(num_flavors_, binning.NumBins(),
                                                    TemporalFeatureEncoder(history_days));
  SequenceNetworkConfig net_config;
  net_config.input_dim = encoder_->Dim();
  net_config.hidden_dim = config.hidden_dim;
  net_config.num_layers = config.num_layers;
  net_config.output_dim = binning.NumBins();
  network_ = SequenceNetwork(net_config, rng);

  const LifetimeStream stream = BuildLifetimeStream(train, binning, history_days);
  if (stream.steps.empty()) {
    return InvalidArgumentError("lifetime training stream is empty");
  }

  const size_t bins = binning.NumBins();
  const bool hazard_head = config.head == LifetimeHead::kHazard;
  std::vector<Matrix> targets;
  std::vector<Matrix> masks;
  std::vector<std::vector<int32_t>> bin_targets;
  std::vector<std::vector<uint8_t>> censored_flags;
  const auto fill = [&](const SequenceBatching& batching, size_t mb,
                        std::vector<Matrix>* inputs) {
    const size_t rows = batching.BatchSize();
    targets.resize(batching.SeqLen());
    masks.resize(batching.SeqLen());
    bin_targets.resize(batching.SeqLen());
    censored_flags.resize(batching.SeqLen());
    for (size_t t = 0; t < batching.SeqLen(); ++t) {
      targets[t].Resize(rows, bins);
      masks[t].Resize(rows, bins);
      bin_targets[t].resize(rows);
      censored_flags[t].resize(rows);
      for (size_t b = 0; b < rows; ++b) {
        const size_t idx = batching.StepIndex(mb, t, b);
        const PrevLifetime prev =
            idx == 0 ? PrevLifetime{} : PrevFromStep(stream.steps[idx - 1]);
        EncodeStep(stream.steps[idx], prev, (*inputs)[t].Row(b));
        if (hazard_head) {
          FillTargetsAndMask(stream.steps[idx].bin, stream.steps[idx].censored, bins,
                             targets[t].Row(b), masks[t].Row(b));
        } else {
          bin_targets[t][b] = static_cast<int32_t>(stream.steps[idx].bin);
          censored_flags[t][b] = stream.steps[idx].censored ? 1 : 0;
        }
      }
    }
  };
  // The hazard head counts unmasked elements, the CE head non-ignored rows.
  // Runs concurrently across shards but only writes shard-local buffers.
  const auto shard_loss = [&](size_t r0, size_t r1, const std::vector<Matrix>& logits,
                              std::vector<Matrix>* dlogits) {
    const size_t rows = r1 - r0;
    double sum = 0.0;
    Matrix shard_targets;
    Matrix shard_masks;
    std::vector<int32_t> shard_bins;
    std::vector<uint8_t> shard_censored;
    for (size_t t = 0; t < logits.size(); ++t) {
      if (hazard_head) {
        ShardCounts counts;
        for (size_t b = 0; b < masks[t].Rows(); ++b) {
          const float* mask_row = masks[t].Row(b);
          size_t row_count = 0;
          for (size_t j = 0; j < bins; ++j) {
            row_count += static_cast<size_t>(mask_row[j] != 0.0f);
          }
          counts.all += row_count;
          if (b >= r0 && b < r1) {
            counts.shard += row_count;
          }
        }
        shard_targets.Resize(rows, bins);
        shard_masks.Resize(rows, bins);
        std::copy(targets[t].Row(r0), targets[t].Row(r0) + rows * bins,
                  shard_targets.Data());
        std::copy(masks[t].Row(r0), masks[t].Row(r0) + rows * bins, shard_masks.Data());
        const double mean =
            MaskedBceWithLogits(logits[t], shard_targets, shard_masks, &(*dlogits)[t]);
        AddShardShare(mean, counts, logits.size(), &(*dlogits)[t], &sum);
      } else {
        shard_bins.assign(bin_targets[t].begin() + static_cast<ptrdiff_t>(r0),
                          bin_targets[t].begin() + static_cast<ptrdiff_t>(r1));
        shard_censored.assign(censored_flags[t].begin() + static_cast<ptrdiff_t>(r0),
                              censored_flags[t].begin() + static_cast<ptrdiff_t>(r1));
        const double mean = CensoredSoftmaxCrossEntropy(logits[t], shard_bins,
                                                        shard_censored, &(*dlogits)[t]);
        AddShardShare(mean, CountTargets(bin_targets[t], r0, r1), logits.size(),
                      &(*dlogits)[t], &sum);
      }
    }
    return sum;
  };
  constexpr TrainerIdentity kTrainer{"train.lifetime", "train.lifetime_epoch",
                                     "lifetime LSTM", kCheckpointStageLifetime};
  return TrainSequenceNetwork(kTrainer, SequenceTrainConfig::Of(config), stream.steps.size(),
                              fill, shard_loss, &network_, rng);
}

LifetimeLstmModel::EvalResult LifetimeLstmModel::Evaluate(const Trace& test) const {
  CG_CHECK(encoder_ != nullptr);
  const LifetimeStream stream = BuildLifetimeStream(test, *binning_, history_days_);
  EvalResult result;
  if (stream.steps.empty()) {
    return result;
  }
  LstmState state = network_.MakeState(1);
  StepWorkspace ws;
  Matrix input(1, encoder_->Dim());
  Matrix logits;
  double bce_sum = 0.0;
  size_t bce_terms = 0;
  double job_nll_sum = 0.0;
  size_t errors = 0;
  constexpr double kEps = 1e-6;  // Matches the baseline-evaluation clamp.
  for (size_t i = 0; i < stream.steps.size(); ++i) {
    const PrevLifetime prev = i == 0 ? PrevLifetime{} : PrevFromStep(stream.steps[i - 1]);
    EncodeStep(stream.steps[i], prev, input.Row(0));
    network_.StepLogits(input, &state, &logits, &ws);

    const LifetimeStep& step = stream.steps[i];
    const std::vector<double> hazard = LogitsToHazard(logits);
    for (size_t j = 0; j < step.bin; ++j) {
      bce_sum += -std::log(std::max(1.0 - hazard[j], kEps));
      ++bce_terms;
    }
    const std::vector<double> pmf = HazardToPmf(hazard);
    if (!step.censored) {
      bce_sum += -std::log(std::max(hazard[step.bin], kEps));
      ++bce_terms;
      job_nll_sum += -std::log(std::max(pmf[step.bin], kEps));
      if (ArgmaxBinFromHazard(hazard) != step.bin) {
        ++errors;
      }
      ++result.uncensored_steps;
    } else {
      double tail = 0.0;
      for (size_t j = step.bin; j < pmf.size(); ++j) {
        tail += pmf[j];
      }
      job_nll_sum += -std::log(std::max(tail, kEps));
    }
  }
  result.steps = stream.steps.size();
  result.bce = bce_terms > 0 ? bce_sum / static_cast<double>(bce_terms) : 0.0;
  result.job_nll =
      result.steps > 0 ? job_nll_sum / static_cast<double>(result.steps) : 0.0;
  result.one_best_err =
      result.uncensored_steps > 0
          ? static_cast<double>(errors) / static_cast<double>(result.uncensored_steps)
          : 0.0;
  return result;
}

std::vector<std::vector<double>> LifetimeLstmModel::PredictHazards(const Trace& test) const {
  CG_CHECK(encoder_ != nullptr);
  const LifetimeStream stream = BuildLifetimeStream(test, *binning_, history_days_);
  std::vector<std::vector<double>> hazards;
  hazards.reserve(stream.steps.size());
  LstmState state = network_.MakeState(1);
  StepWorkspace ws;
  Matrix input(1, encoder_->Dim());
  Matrix logits;
  for (size_t i = 0; i < stream.steps.size(); ++i) {
    const PrevLifetime prev = i == 0 ? PrevLifetime{} : PrevFromStep(stream.steps[i - 1]);
    EncodeStep(stream.steps[i], prev, input.Row(0));
    network_.StepLogits(input, &state, &logits, &ws);
    hazards.push_back(LogitsToHazard(logits));
  }
  return hazards;
}

LifetimeLstmModel::Generator::Generator(const LifetimeLstmModel& model, int doh_day,
                                        GuardPolicy guard)
    : model_(model),
      doh_day_(doh_day),
      guard_(guard),
      state_(model.network_.MakeState(1)),
      input_(1, model.encoder_->Dim()) {}

size_t LifetimeLstmModel::Generator::StepJob(int64_t period, int32_t flavor,
                                             size_t batch_size, Rng& rng) {
  // Hot-path metric handle, registered once per process (see metrics.h).
  static obs::Histogram& step_hist =
      obs::Registry::Global().GetHistogram("gen.step_ns", obs::StepLatencyBucketsNs());
  BeginJobStep(period, flavor, batch_size, input_.Row(0));
  const auto step_start = std::chrono::steady_clock::now();
  model_.network_.StepLogits(input_, &state_, &logits_, &ws_);
  step_hist.Observe(static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                            std::chrono::steady_clock::now() - step_start)
                                            .count()));
  return ConsumeJobStep(rng);
}

void LifetimeLstmModel::Generator::BeginJobStep(int64_t period, int32_t flavor,
                                                size_t batch_size, float* x_row) {
  LifetimeStep step;
  step.period = period;
  step.doh_day = doh_day_;
  step.flavor = flavor;
  step.batch_size = batch_size;
  // The step input always lands in input_ as well: the --guard=fallback
  // re-run inside ConsumeJobStep replays the step from it.
  float* own = input_.Row(0);
  model_.EncodeStep(step, prev_, own);
  pending_period_ = period;
  if (guard_ == GuardPolicy::kFallback) {
    fallback_state_ = state_;  // Same-shape copy: no steady-state allocation.
  }
  if (x_row != own) {
    std::copy(own, own + input_.Cols(), x_row);
  }
}

size_t LifetimeLstmModel::Generator::ConsumeJobStep(Rng& rng) {
  // Hot-path metric handle, registered once per process (see metrics.h).
  static obs::Counter& token_counter = obs::Registry::Global().GetCounter("gen.tokens");
  token_counter.Add(1);
  const int64_t period = pending_period_;
  if (FaultInjector::Global().ShouldInject(FaultKind::kGenNanLogit)) {
    logits_.Row(0)[0] = std::numeric_limits<float>::quiet_NaN();
  }
  model_.LogitsToHazardInto(logits_, &hazard_, &ws_.scratch);
  if (guard_ != GuardPolicy::kOff &&
      (!AllFinite(logits_.Row(0), logits_.Cols()) || !ValidHazard(hazard_))) {
    CountGuardViolation();
    if (guard_ == GuardPolicy::kAbort) {
      GuardAbort(StrFormat("lifetime hazard invalid at period %lld",
                           static_cast<long long>(period)));
    }
    if (guard_ == GuardPolicy::kFallback) {
      // Replay the step from the pre-step snapshot; on healthy weights it
      // reproduces the step bit for bit, so the recovered trace matches an
      // unfaulted run.
      state_ = fallback_state_;
      model_.network_.StepLogits(input_, &state_, &logits_, &ws_);
      model_.LogitsToHazardInto(logits_, &hazard_, &ws_.scratch);
      if (!AllFinite(logits_.Row(0), logits_.Cols()) || !ValidHazard(hazard_)) {
        GuardAbort("lifetime hazard invalid on the replayed step too");
      }
      CountGuardFallback();
    } else if (guard_ == GuardPolicy::kResample) {
      SanitizeHazard(&hazard_);
      CountGuardResample();
    }
  }
  const size_t bin = SampleBinFromHazard(hazard_, rng);
  prev_.valid = true;
  prev_.bin = bin;
  prev_.censored = false;  // Generated lifetimes are always complete draws.
  return bin;
}

void LifetimeLstmModel::Generator::SaveState(std::ostream& out) const {
  const uint8_t valid = prev_.valid ? 1 : 0;
  const uint8_t censored = prev_.censored ? 1 : 0;
  const auto bin = static_cast<uint64_t>(prev_.bin);
  out.write(reinterpret_cast<const char*>(&valid), sizeof(valid));
  out.write(reinterpret_cast<const char*>(&censored), sizeof(censored));
  out.write(reinterpret_cast<const char*>(&bin), sizeof(bin));
  WriteLstmState(out, state_);
}

Status LifetimeLstmModel::Generator::LoadState(std::istream& in, int doh_day) {
  uint8_t valid = 0;
  uint8_t censored = 0;
  uint64_t bin = 0;
  in.read(reinterpret_cast<char*>(&valid), sizeof(valid));
  in.read(reinterpret_cast<char*>(&censored), sizeof(censored));
  in.read(reinterpret_cast<char*>(&bin), sizeof(bin));
  if (!in) {
    return DataLossError("truncated lifetime generator state");
  }
  if (bin >= model_.Binning().NumBins()) {
    return FailedPreconditionError(
        StrFormat("lifetime generator state has previous bin %llu; the model has %zu bins",
                  static_cast<unsigned long long>(bin), model_.Binning().NumBins()));
  }
  prev_.valid = valid != 0;
  prev_.censored = censored != 0;
  prev_.bin = static_cast<size_t>(bin);
  doh_day_ = doh_day;
  return ReadLstmState(in, &state_).WithContext("lifetime generator state");
}

Status LifetimeLstmModel::SaveToFile(const std::string& path) const {
  if (!IsTrained()) {
    return FailedPreconditionError("lifetime model is untrained; nothing to save");
  }
  std::ostringstream out(std::ios::binary);
  const uint8_t head = config_.head == LifetimeHead::kPmf ? 1 : 0;
  out.write(reinterpret_cast<const char*>(&head), sizeof(head));
  network_.Save(out);
  return WriteSealedFile(path, kSealLifetimeModel, 0, std::move(out).str());
}

Status LifetimeLstmModel::LoadFromFile(const std::string& path,
                                       const LifetimeBinning& binning, int history_days,
                                       size_t num_flavors) {
  std::string payload;
  CG_RETURN_IF_ERROR(
      ReadSealedFile(path, kSealLifetimeModel, nullptr, &payload).WithContext("lifetime model"));
  // The CRC above guarantees the payload is exactly what Save wrote, so the
  // raw stream parse below only CG_CHECKs true invariants.
  std::istringstream in(payload, std::ios::binary);
  uint8_t head = 0;
  in.read(reinterpret_cast<char*>(&head), sizeof(head));
  if (!in) {
    return DataLossError(path + ": lifetime model payload is empty");
  }
  config_.head = head == 1 ? LifetimeHead::kPmf : LifetimeHead::kHazard;
  network_.Load(in);
  history_days_ = history_days;
  num_flavors_ = num_flavors;
  binning_ = std::make_unique<LifetimeBinning>(binning);
  encoder_ = std::make_unique<LifetimeInputEncoder>(num_flavors_, binning.NumBins(),
                                                    TemporalFeatureEncoder(history_days));
  if (network_.Config().input_dim != encoder_->Dim()) {
    encoder_.reset();
    return FailedPreconditionError(
        path + ": loaded lifetime model does not match the encoder dimensions");
  }
  return OkStatus();
}

}  // namespace cloudgen
