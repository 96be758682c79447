#include "src/core/single_lstm_model.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "src/core/trainer.h"
#include "src/nn/activations.h"
#include "src/obs/metrics.h"
#include "src/util/cancel.h"
#include "src/util/check.h"
#include "src/util/fault.h"
#include "src/util/log.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace cloudgen {

FlavorStream BuildEopStream(const Trace& trace, int history_days) {
  const auto eob = static_cast<int32_t>(trace.NumFlavors());
  const int32_t eop = eob + 1;
  FlavorStream stream;
  const std::vector<PeriodBatches> periods = BuildBatches(trace);
  const int64_t start_day = trace.WindowStart() / kPeriodsPerDay;
  for (const PeriodBatches& period : periods) {
    const PeriodCalendar cal = DecomposePeriod(period.period);
    const int doh =
        std::clamp(static_cast<int>(cal.day_index - start_day) + 1, 1, history_days);
    for (const Batch& batch : period.batches) {
      for (size_t idx : batch.job_indices) {
        stream.tokens.push_back(trace.Jobs()[idx].flavor);
        stream.periods.push_back(period.period);
        stream.doh_days.push_back(doh);
      }
      stream.tokens.push_back(eob);
      stream.periods.push_back(period.period);
      stream.doh_days.push_back(doh);
    }
    stream.tokens.push_back(eop);
    stream.periods.push_back(period.period);
    stream.doh_days.push_back(doh);
  }
  return stream;
}

size_t SingleLstmModel::EopToken() const { return num_flavors_ + 1; }

Status SingleLstmModel::Train(const Trace& train, int history_days,
                              const SingleLstmConfig& config, Rng& rng) {
  num_flavors_ = train.NumFlavors();
  // Vocabulary trick: a FlavorVocab over K+1 "flavors" gives K+2 tokens; slot
  // K is EOB and slot K+1 (the vocab's own EOB slot) is EOP.
  encoder_ = std::make_unique<FlavorInputEncoder>(FlavorVocab(num_flavors_ + 1),
                                                  TemporalFeatureEncoder(history_days));
  SequenceNetworkConfig net_config;
  net_config.input_dim = encoder_->Dim();
  net_config.hidden_dim = config.hidden_dim;
  net_config.num_layers = config.num_layers;
  net_config.output_dim = encoder_->Vocab().NumTokens();
  network_ = SequenceNetwork(net_config, rng);

  const FlavorStream stream = BuildEopStream(train, history_days);
  if (stream.tokens.empty()) {
    return InvalidArgumentError("single-LSTM training stream is empty");
  }
  constexpr TrainerIdentity kTrainer{"train.single_lstm", "train.single_lstm_epoch",
                                     "single LSTM", kCheckpointStageSingleLstm};
  return TrainTokenNetwork(stream, *encoder_, config, kTrainer, &network_, rng);
}

SingleLstmModel::Generator::Generator(const SingleLstmModel& model, int doh_day,
                                      GuardPolicy guard)
    : model_(model),
      doh_day_(doh_day),
      guard_(guard),
      state_(model.network_.MakeState(1)),
      prev_token_(model.EopToken()),
      input_(1, model.encoder_->Dim()) {
  CG_CHECK(model.IsTrained());
}

std::vector<std::vector<int32_t>> SingleLstmModel::Generator::GeneratePeriod(
    int64_t period, Rng& rng, size_t max_jobs, const CancelToken* cancel) {
  const size_t eob = model_.num_flavors_;
  const size_t eop = model_.EopToken();
  std::vector<std::vector<int32_t>> batches;
  std::vector<int32_t> current;
  size_t total_jobs = 0;
  // Hot-path metric handles, registered once per process (see metrics.h).
  static obs::Counter& token_counter = obs::Registry::Global().GetCounter("gen.tokens");
  static obs::Histogram& step_hist =
      obs::Registry::Global().GetHistogram("gen.step_ns", obs::StepLatencyBucketsNs());
  while (true) {
    if (cancel != nullptr && cancel->Cancelled()) {
      break;  // Partial period: the caller discards the whole trace.
    }
    model_.encoder_->EncodeInto(prev_token_, period, doh_day_, input_.Row(0));
    if (guard_ == GuardPolicy::kFallback) {
      fallback_state_ = state_;  // Same-shape copy: no steady-state allocation.
    }
    const auto step_start = std::chrono::steady_clock::now();
    model_.network_.StepLogits(input_, &state_, &logits_, &ws_);
    step_hist.Observe(static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                              std::chrono::steady_clock::now() - step_start)
                                              .count()));
    token_counter.Add(1);
    if (FaultInjector::Global().ShouldInject(FaultKind::kGenNanLogit)) {
      logits_.Row(0)[0] = std::numeric_limits<float>::quiet_NaN();
    }
    if (guard_ != GuardPolicy::kOff && !AllFinite(logits_.Row(0), logits_.Cols())) {
      CountGuardViolation();
      if (guard_ == GuardPolicy::kAbort) {
        GuardAbort(StrFormat("single-LSTM logits non-finite at period %lld",
                             static_cast<long long>(period)));
      }
      if (guard_ == GuardPolicy::kFallback) {
        state_ = fallback_state_;
        model_.network_.StepLogits(input_, &state_, &logits_, &ws_);
        if (!AllFinite(logits_.Row(0), logits_.Cols())) {
          GuardAbort("single-LSTM logits non-finite on the replayed step too");
        }
        CountGuardFallback();
      }
    }
    MaxShiftedExp(logits_.Row(0), logits_.Cols(), &ws_.probs);
    if (guard_ == GuardPolicy::kResample && !ValidWeights(ws_.probs)) {
      SanitizeWeights(&ws_.probs);
      CountGuardResample();
    }
    const size_t token = rng.Categorical(ws_.probs);
    prev_token_ = token;
    if (token == eop) {
      if (!current.empty()) {
        batches.push_back(std::move(current));  // Implicitly close the batch.
      }
      break;
    }
    if (token == eob) {
      if (!current.empty()) {
        batches.push_back(std::move(current));
        current.clear();
      }
      continue;
    }
    current.push_back(static_cast<int32_t>(token));
    if (++total_jobs >= max_jobs) {
      CG_LOG_WARN("single-LSTM generator hit the per-period job cap");
      if (!current.empty()) {
        batches.push_back(std::move(current));
      }
      break;
    }
  }
  return batches;
}

}  // namespace cloudgen
