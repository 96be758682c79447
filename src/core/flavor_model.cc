#include "src/core/flavor_model.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "src/core/gen_checkpoint.h"
#include "src/core/trainer.h"
#include "src/nn/activations.h"
#include "src/nn/losses.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/fault.h"
#include "src/util/log.h"
#include "src/util/rng.h"
#include "src/util/sealed_file.h"
#include "src/util/strings.h"

namespace cloudgen {

namespace {

// Expands a factored concat row [u | v] (see src/nn/factored_softmax.h) into
// per-token log-probabilities:
//   log p(t) = log softmax_C(u)[c(t)] + log softmax_{slice(c(t))}(v)[t].
// Used by teacher-forced evaluation and NextTokenProbs; generation samples
// the two levels directly and never builds this vector.
void FactoredLogProbs(const FactoredVocabMap& map, const float* row,
                      std::vector<double>* lp) {
  const size_t num_clusters = map.NumClusters();
  const size_t num_tokens = map.NumTokens();
  lp->resize(num_tokens);
  double max_u = row[0];
  for (size_t c = 1; c < num_clusters; ++c) {
    max_u = std::max(max_u, static_cast<double>(row[c]));
  }
  double su = 0.0;
  for (size_t c = 0; c < num_clusters; ++c) {
    su += std::exp(static_cast<double>(row[c]) - max_u);
  }
  const double log_su = std::log(su);
  const float* v = row + num_clusters;
  for (size_t c = 0; c < num_clusters; ++c) {
    const size_t begin = map.SliceBegin(c);
    const size_t width = map.SliceWidth(c);
    double max_v = v[begin];
    for (size_t j = 1; j < width; ++j) {
      max_v = std::max(max_v, static_cast<double>(v[begin + j]));
    }
    double sv = 0.0;
    for (size_t j = 0; j < width; ++j) {
      sv += std::exp(static_cast<double>(v[begin + j]) - max_v);
    }
    const double cluster_lp = (static_cast<double>(row[c]) - max_u) - log_su;
    const double log_sv = std::log(sv);
    for (size_t j = 0; j < width; ++j) {
      (*lp)[begin + j] =
          cluster_lp + (static_cast<double>(v[begin + j]) - max_v) - log_sv;
    }
  }
}

}  // namespace

FlavorStream BuildFlavorStream(const Trace& trace, int history_days) {
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
      stream.tokens.push_back(static_cast<int32_t>(trace.NumFlavors()));  // EOB.
      stream.periods.push_back(period.period);
      stream.doh_days.push_back(doh);
    }
  }
  return stream;
}

size_t ArgmaxExcluding(const std::vector<double>& weights, size_t exclude) {
  CG_CHECK(weights.size() >= 2 || exclude >= weights.size());
  size_t best = exclude == 0 ? 1 : 0;
  for (size_t c = best + 1; c < weights.size(); ++c) {
    if (c != exclude && weights[c] > weights[best]) {
      best = c;
    }
  }
  return best;
}

FlavorStream FlavorLstmModel::BuildStream(const Trace& trace) const {
  CG_CHECK(encoder_ != nullptr);
  return BuildFlavorStream(trace, encoder_->Temporal().HistoryDays());
}

const FlavorVocab& FlavorLstmModel::Vocab() const {
  CG_CHECK(encoder_ != nullptr);
  return encoder_->Vocab();
}

Status TrainTokenNetwork(const FlavorStream& stream, const FlavorInputEncoder& encoder,
                         const FlavorModelConfig& config, const TrainerIdentity& trainer,
                         SequenceNetwork* network, Rng& rng) {
  const size_t start_token = encoder.Vocab().EobToken();
  std::vector<std::vector<int32_t>> targets;
  const auto fill = [&](const SequenceBatching& batching, size_t mb,
                        std::vector<Matrix>* inputs) {
    targets.resize(batching.SeqLen());
    for (size_t t = 0; t < batching.SeqLen(); ++t) {
      targets[t].assign(batching.BatchSize(), kIgnoreTarget);
      for (size_t b = 0; b < batching.BatchSize(); ++b) {
        const size_t step = batching.StepIndex(mb, t, b);
        const size_t prev =
            step == 0 ? start_token : static_cast<size_t>(stream.tokens[step - 1]);
        encoder.EncodeInto(prev, stream.periods[step], stream.doh_days[step],
                           (*inputs)[t].Row(b));
        targets[t][b] = stream.tokens[step];
      }
    }
  };
  // Runs concurrently across shards but only writes shard-local buffers.
  const auto shard_loss = [&](size_t r0, size_t r1, const std::vector<Matrix>& logits,
                              std::vector<Matrix>* dlogits) {
    double sum = 0.0;
    std::vector<int32_t> shard_targets;
    for (size_t t = 0; t < logits.size(); ++t) {
      shard_targets.assign(targets[t].begin() + static_cast<ptrdiff_t>(r0),
                           targets[t].begin() + static_cast<ptrdiff_t>(r1));
      const double mean =
          network->IsFactored()
              ? FactoredSoftmaxCrossEntropy(logits[t], shard_targets,
                                            network->FactoredHead().Map(), &(*dlogits)[t])
              : SoftmaxCrossEntropy(logits[t], shard_targets, &(*dlogits)[t]);
      AddShardShare(mean, CountTargets(targets[t], r0, r1), logits.size(), &(*dlogits)[t],
                    &sum);
    }
    return sum;
  };
  return TrainSequenceNetwork(trainer, SequenceTrainConfig::Of(config), stream.tokens.size(),
                              fill, shard_loss, network, rng);
}

Status FlavorLstmModel::Train(const Trace& train, int history_days,
                              const FlavorModelConfig& config, Rng& rng) {
  constexpr TrainerIdentity kTrainer{"train.flavor", "train.flavor_epoch", "flavor LSTM",
                                     kCheckpointStageFlavor};
  return Train(train, history_days, config, FactoredVocabMap(), kTrainer, rng);
}

Status FlavorLstmModel::Train(const Trace& train, int history_days,
                              const FlavorModelConfig& config, FactoredVocabMap map,
                              const TrainerIdentity& trainer, Rng& rng) {
  config_ = config;
  encoder_ = std::make_unique<FlavorInputEncoder>(FlavorVocab(train.NumFlavors()),
                                                  TemporalFeatureEncoder(history_days));
  SequenceNetworkConfig net_config;
  net_config.input_dim = encoder_->Dim();
  net_config.hidden_dim = config.hidden_dim;
  net_config.num_layers = config.num_layers;
  net_config.output_dim = encoder_->Vocab().NumTokens();
  net_config.factored_clusters = config.factored_clusters;
  network_ = SequenceNetwork(net_config, rng, std::move(map));

  const FlavorStream stream = BuildFlavorStream(train, history_days);
  if (stream.tokens.empty()) {
    return InvalidArgumentError(StrFormat("%s training stream is empty", trainer.label));
  }
  return TrainTokenNetwork(stream, *encoder_, config, trainer, &network_, rng);
}

FlavorLstmModel::EvalResult FlavorLstmModel::Evaluate(const Trace& test) const {
  CG_CHECK(encoder_ != nullptr);
  const FlavorStream stream = BuildStream(test);
  EvalResult result;
  if (stream.tokens.empty()) {
    return result;
  }
  const size_t eob = encoder_->Vocab().EobToken();
  // Single stateful pass over the full stream (no truncation) so every step
  // is scored exactly once, conditioned on the entire history.
  LstmState state = network_.MakeState(1);
  Matrix input(1, encoder_->Dim());
  Matrix logits;
  std::vector<double> factored_lp;
  double nll = 0.0;
  size_t errors = 0;
  double nll_flavor = 0.0;
  size_t errors_flavor = 0;
  size_t flavor_steps = 0;
  for (size_t step = 0; step < stream.tokens.size(); ++step) {
    const size_t prev = step == 0 ? eob : static_cast<size_t>(stream.tokens[step - 1]);
    encoder_->EncodeInto(prev, stream.periods[step], stream.doh_days[step], input.Row(0));
    network_.StepLogits(input, &state, &logits);

    double log_prob = 0.0;
    bool wrong = false;
    if (network_.IsFactored()) {
      // Factored heads emit the concat [u | v]; expand to token log-probs.
      FactoredLogProbs(network_.FactoredHead().Map(), logits.Row(0), &factored_lp);
      size_t argmax = 0;
      for (size_t c = 1; c < factored_lp.size(); ++c) {
        if (factored_lp[c] > factored_lp[argmax]) {
          argmax = c;
        }
      }
      log_prob = factored_lp[stream.tokens[step]];
      wrong = argmax != static_cast<size_t>(stream.tokens[step]);
    } else {
      // NLL and argmax from the logits row.
      const float* row = logits.Row(0);
      const size_t classes = logits.Cols();
      float max_v = row[0];
      size_t argmax = 0;
      for (size_t c = 1; c < classes; ++c) {
        if (row[c] > max_v) {
          max_v = row[c];
          argmax = c;
        }
      }
      double sum = 0.0;
      for (size_t c = 0; c < classes; ++c) {
        sum += std::exp(static_cast<double>(row[c] - max_v));
      }
      log_prob = static_cast<double>(row[stream.tokens[step]] - max_v) - std::log(sum);
      wrong = argmax != static_cast<size_t>(stream.tokens[step]);
    }
    nll -= log_prob;
    if (wrong) {
      ++errors;
    }
    if (static_cast<size_t>(stream.tokens[step]) != eob) {
      nll_flavor -= log_prob;
      if (wrong) {
        ++errors_flavor;
      }
      ++flavor_steps;
    }
  }
  result.steps = stream.tokens.size();
  result.nll = nll / static_cast<double>(result.steps);
  result.one_best_err = static_cast<double>(errors) / static_cast<double>(result.steps);
  result.flavor_steps = flavor_steps;
  if (flavor_steps > 0) {
    result.nll_flavor_only = nll_flavor / static_cast<double>(flavor_steps);
    result.one_best_err_flavor_only =
        static_cast<double>(errors_flavor) / static_cast<double>(flavor_steps);
  }
  return result;
}

std::vector<double> FlavorLstmModel::NextTokenProbs(const FlavorStream& stream,
                                                    size_t upto_step) const {
  CG_CHECK(encoder_ != nullptr);
  CG_CHECK(upto_step <= stream.tokens.size());
  const size_t eob = encoder_->Vocab().EobToken();
  LstmState state = network_.MakeState(1);
  Matrix input(1, encoder_->Dim());
  Matrix logits;
  for (size_t step = 0; step <= upto_step; ++step) {
    const size_t prev = step == 0 ? eob : static_cast<size_t>(stream.tokens[step - 1]);
    const size_t ref = std::min(step, stream.tokens.size() - 1);
    encoder_->EncodeInto(prev, stream.periods[ref], stream.doh_days[ref], input.Row(0));
    network_.StepLogits(input, &state, &logits);
  }
  std::vector<double> probs;
  if (network_.IsFactored()) {
    FactoredLogProbs(network_.FactoredHead().Map(), logits.Row(0), &probs);
    for (double& p : probs) {
      p = std::exp(p);
    }
    return probs;
  }
  const double sum = MaxShiftedExp(logits.Row(0), logits.Cols(), &probs);
  for (double& p : probs) {
    p /= sum;
  }
  return probs;
}

FlavorLstmModel::Generator::Generator(const FlavorLstmModel& model, int doh_day,
                                      double eob_scale, GuardPolicy guard)
    : model_(model),
      doh_day_(doh_day),
      eob_scale_(eob_scale),
      guard_(guard),
      state_(model.network_.MakeState(1)),
      prev_token_(model.Vocab().EobToken()),
      input_(1, model.encoder_->Dim()) {
  CG_CHECK(eob_scale > 0.0);
}

void FlavorLstmModel::Generator::SaveState(std::ostream& out) const {
  const auto prev = static_cast<uint64_t>(prev_token_);
  out.write(reinterpret_cast<const char*>(&prev), sizeof(prev));
  WriteLstmState(out, state_);
}

Status FlavorLstmModel::Generator::LoadState(std::istream& in, int doh_day) {
  uint64_t prev = 0;
  in.read(reinterpret_cast<char*>(&prev), sizeof(prev));
  if (!in) {
    return DataLossError("truncated flavor generator state");
  }
  if (prev >= model_.Vocab().NumTokens()) {
    return FailedPreconditionError(
        StrFormat("flavor generator state has previous token %llu; the model has %zu tokens",
                  static_cast<unsigned long long>(prev), model_.Vocab().NumTokens()));
  }
  prev_token_ = static_cast<size_t>(prev);
  doh_day_ = doh_day;
  return ReadLstmState(in, &state_).WithContext("flavor generator state");
}

void FlavorLstmModel::Generator::StartPeriod(int64_t period, int64_t n_batches,
                                             size_t max_jobs) {
  period_ = period;
  n_batches_ = n_batches;
  max_jobs_ = max_jobs;
  total_jobs_ = 0;
  batches_.clear();
  period_active_ = false;
  if (n_batches <= 0) {
    return;
  }
  batches_.emplace_back();
  period_active_ = true;
}

void FlavorLstmModel::Generator::StepToken(Rng& rng) {
  CG_DCHECK(period_active_);
  // Hot-path metric handle, registered once per process (see metrics.h).
  static obs::Histogram& step_hist =
      obs::Registry::Global().GetHistogram("gen.step_ns", obs::StepLatencyBucketsNs());
  BeginStep(input_.Row(0));
  const auto step_start = std::chrono::steady_clock::now();
  if (model_.network_.IsFactored()) {
    // Factored heads never materialize logits: recurrent step only, then
    // two-level sampling straight from the hidden state.
    model_.network_.StepRecurrent(input_, &state_, &ws_);
  } else {
    model_.network_.StepLogits(input_, &state_, &logits_, &ws_);
  }
  step_hist.Observe(static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                            std::chrono::steady_clock::now() - step_start)
                                            .count()));
  ConsumeStep(rng);
}

void FlavorLstmModel::Generator::BeginStep(float* x_row) {
  CG_DCHECK(period_active_);
  // The step input always lands in input_ as well: the --guard=fallback
  // re-run inside ConsumeStep replays the step from it.
  float* own = input_.Row(0);
  model_.encoder_->EncodeInto(prev_token_, period_, doh_day_, own);
  if (guard_ == GuardPolicy::kFallback) {
    fallback_state_ = state_;  // Same-shape copy: no steady-state allocation.
  }
  if (x_row != own) {
    std::copy(own, own + input_.Cols(), x_row);
  }
}

void FlavorLstmModel::Generator::ConsumeStep(Rng& rng) {
  CG_DCHECK(period_active_);
  // Hot-path metric handle, registered once per process (see metrics.h).
  static obs::Counter& token_counter = obs::Registry::Global().GetCounter("gen.tokens");
  token_counter.Add(1);
  const size_t eob = model_.Vocab().EobToken();
  size_t token;
  if (model_.network_.IsFactored()) {
    token = SampleFactoredToken(rng);
  } else {
    if (FaultInjector::Global().ShouldInject(FaultKind::kGenNanLogit)) {
      logits_.Row(0)[0] = std::numeric_limits<float>::quiet_NaN();
    }
    if (guard_ != GuardPolicy::kOff && !AllFinite(logits_.Row(0), logits_.Cols())) {
      CountGuardViolation();
      if (guard_ == GuardPolicy::kAbort) {
        GuardAbort(StrFormat("flavor logits non-finite at period %lld",
                             static_cast<long long>(period_)));
      }
      if (guard_ == GuardPolicy::kFallback) {
        // Redo the step through the reference (no-workspace) route from the
        // pre-step snapshot; on healthy weights it is bitwise-identical to
        // the workspace route, so the recovered trace matches an unfaulted
        // run.
        state_ = fallback_state_;
        model_.network_.StepLogits(input_, &state_, &logits_);
        if (!AllFinite(logits_.Row(0), logits_.Cols())) {
          GuardAbort("flavor logits non-finite on the reference route too");
        }
        CountGuardFallback();
      }
      // kResample: keep going; the weights are sanitized below.
    }

    // Sample from the softmax distribution (unnormalized weights; Categorical
    // normalizes internally).
    MaxShiftedExp(logits_.Row(0), logits_.Cols(), &ws_.probs);
    ws_.probs[eob] *= eob_scale_;  // What-if batch-size modification (footnote 5).
    if (guard_ == GuardPolicy::kResample && !ValidWeights(ws_.probs)) {
      SanitizeWeights(&ws_.probs);
      CountGuardResample();
    }
    token = rng.Categorical(ws_.probs);

    // Safety: an empty batch is not representable in the data (every batch
    // has >= 1 job), so re-interpret an immediate EOB as the most likely
    // flavor instead — explicitly excluding EOB wherever it sits in the
    // vocabulary, rather than assuming it is the last token.
    if (token == eob && batches_.back().empty()) {
      token = ArgmaxExcluding(ws_.probs, eob);
    }
  }
  AdvanceToken(token, eob);
}

void FlavorLstmModel::Generator::AdvanceToken(size_t token, size_t eob) {
  if (token == eob) {
    if (static_cast<int64_t>(batches_.size()) == n_batches_) {
      prev_token_ = token;
      period_active_ = false;
      return;
    }
    batches_.emplace_back();
  } else {
    batches_.back().push_back(static_cast<int32_t>(token));
    if (++total_jobs_ >= max_jobs_) {
      obs::Registry::Global().GetCounter("gen.period_truncations").Add(1);
      CG_LOG_WARN("flavor generator hit the per-period job cap; truncating period");
      // Matches the pre-split loop's `break`: the capped token is kept but
      // never fed back, so resuming state is identical.
      period_active_ = false;
      return;
    }
  }
  prev_token_ = token;
}

size_t FlavorLstmModel::Generator::SampleFactoredToken(Rng& rng) {
  const ClassFactoredHead& head = model_.network_.FactoredHead();
  const FactoredVocabMap& map = head.Map();
  const size_t eob = model_.Vocab().EobToken();
  const size_t num_clusters = map.NumClusters();
  const float* h = state_.h.back().Row(0);

  // Level 1: cluster logits from the hidden state. `resize` only reshapes;
  // vector capacity persists, so the steady state allocates nothing.
  ws_.flogits.resize(num_clusters);
  ws_.facc.resize(num_clusters);
  head.ClusterLogitsInto(h, ws_.facc.data(), ws_.flogits.data());
  if (FaultInjector::Global().ShouldInject(FaultKind::kGenNanLogit)) {
    ws_.flogits[0] = std::numeric_limits<float>::quiet_NaN();
  }
  if (guard_ != GuardPolicy::kOff && !AllFinite(ws_.flogits.data(), num_clusters)) {
    CountGuardViolation();
    if (guard_ == GuardPolicy::kAbort) {
      GuardAbort(StrFormat("flavor cluster logits non-finite at period %lld",
                           static_cast<long long>(period_)));
    }
    if (guard_ == GuardPolicy::kFallback) {
      // Redo the recurrent step on the reference route and recompute the
      // cluster logits; no RNG draw has been consumed yet.
      state_ = fallback_state_;
      model_.network_.StepRecurrent(input_, &state_);
      h = state_.h.back().Row(0);
      head.ClusterLogitsInto(h, ws_.facc.data(), ws_.flogits.data());
      if (!AllFinite(ws_.flogits.data(), num_clusters)) {
        GuardAbort("flavor cluster logits non-finite on the reference route too");
      }
      CountGuardFallback();
    }
    // kResample: the cluster weights are sanitized below.
  }
  MaxShiftedExp(ws_.flogits.data(), num_clusters, &ws_.cweights);

  const size_t eob_cluster = map.ClusterOf(eob);
  if (eob_scale_ != 1.0) {
    // Exact footnote-5 adjustment under the factorization: scaling the EOB
    // token's unnormalized weight by s multiplies its cluster's total mass
    // by (1 - p(eob|c)) + s * p(eob|c), and the member weight inside the
    // slice by s (applied at level 2 below). Corrupt slice logits make the
    // factor NaN; that weight is then caught by sanitize/Categorical's
    // degenerate fallback, never indexed out of range.
    const size_t begin = map.SliceBegin(eob_cluster);
    const size_t width = map.SliceWidth(eob_cluster);
    ws_.flogits.resize(std::max(width, num_clusters));
    ws_.facc.resize(std::max(width, num_clusters));
    head.MemberSliceLogitsInto(h, eob_cluster, ws_.facc.data(), ws_.flogits.data());
    const double vsum = MaxShiftedExp(ws_.flogits.data(), width, &ws_.scratch);
    const double p_eob = ws_.scratch[eob - begin] / vsum;
    ws_.cweights[eob_cluster] *= 1.0 - p_eob + eob_scale_ * p_eob;
  }
  if (guard_ == GuardPolicy::kResample && !ValidWeights(ws_.cweights)) {
    SanitizeWeights(&ws_.cweights);
    CountGuardResample();
  }
  const size_t cluster = rng.Categorical(ws_.cweights);

  // Level 2: member softmax over the drawn cluster's slice.
  const size_t begin = map.SliceBegin(cluster);
  const size_t width = map.SliceWidth(cluster);
  ws_.flogits.resize(std::max(width, num_clusters));
  ws_.facc.resize(std::max(width, num_clusters));
  head.MemberSliceLogitsInto(h, cluster, ws_.facc.data(), ws_.flogits.data());
  if (guard_ != GuardPolicy::kOff && !AllFinite(ws_.flogits.data(), width)) {
    // A corrupt slice under a healthy cluster row: the cluster draw is
    // already consumed, so a fallback re-run cannot replay it — escalate
    // under both abort and fallback; resample sanitizes below.
    CountGuardViolation();
    if (guard_ != GuardPolicy::kResample) {
      GuardAbort(StrFormat("flavor member logits non-finite at period %lld",
                           static_cast<long long>(period_)));
    }
  }
  MaxShiftedExp(ws_.flogits.data(), width, &ws_.probs);
  if (cluster == eob_cluster) {
    ws_.probs[eob - begin] *= eob_scale_;
  }
  if (guard_ == GuardPolicy::kResample && !ValidWeights(ws_.probs)) {
    SanitizeWeights(&ws_.probs);
    CountGuardResample();
  }
  size_t token = begin + rng.Categorical(ws_.probs);

  // Empty-batch EOB fallback (same invariant as the dense path): emit the
  // most likely non-EOB token under the full two-level distribution. Rare
  // path, O(C + K); consumes no draws, like the dense ArgmaxExcluding.
  if (token == eob && batches_.back().empty()) {
    ws_.flogits.resize(num_clusters);
    head.ClusterLogitsInto(h, ws_.facc.data(), ws_.flogits.data());
    const double usum = MaxShiftedExp(ws_.flogits.data(), num_clusters, &ws_.cweights);
    size_t best = eob == 0 ? 1 : 0;
    double best_w = -1.0;
    for (size_t c = 0; c < num_clusters; ++c) {
      const size_t b0 = map.SliceBegin(c);
      const size_t w = map.SliceWidth(c);
      ws_.flogits.resize(std::max(w, num_clusters));
      ws_.facc.resize(std::max(w, num_clusters));
      head.MemberSliceLogitsInto(h, c, ws_.facc.data(), ws_.flogits.data());
      const double vsum = MaxShiftedExp(ws_.flogits.data(), w, &ws_.scratch);
      const double pc = ws_.cweights[c] / usum;
      for (size_t j = 0; j < w; ++j) {
        if (b0 + j == eob) {
          continue;
        }
        const double weight = pc * (ws_.scratch[j] / vsum);
        if (weight > best_w) {  // NaN weights never win.
          best_w = weight;
          best = b0 + j;
        }
      }
    }
    token = best;
  }
  return token;
}

Status FlavorLstmModel::SaveToFile(const std::string& path) const {
  if (!IsTrained()) {
    return FailedPreconditionError("flavor model is not trained");
  }
  std::ostringstream payload(std::ios::binary);
  network_.Save(payload);
  CG_RETURN_IF_ERROR(WriteSealedFile(path, kSealFlavorModel, 0, std::move(payload).str()));
  return OkStatus();
}

Status FlavorLstmModel::LoadFromFile(const std::string& path, int history_days,
                                     size_t num_flavors) {
  std::string payload;
  CG_RETURN_IF_ERROR(ReadSealedFile(path, kSealFlavorModel, nullptr, &payload)
                         .WithContext("flavor model"));
  // The CRC above guarantees payload integrity; Load's internal invariant
  // checks cannot fire on environmental corruption past this point.
  std::istringstream in(payload, std::ios::binary);
  network_.Load(in);
  encoder_ = std::make_unique<FlavorInputEncoder>(FlavorVocab(num_flavors),
                                                  TemporalFeatureEncoder(history_days));
  if (network_.Config().input_dim != encoder_->Dim()) {
    encoder_.reset();
    return FailedPreconditionError(StrFormat(
        "flavor model %s input dim %zu does not match the encoder dim (%d flavors)",
        path.c_str(), network_.Config().input_dim, static_cast<int>(num_flavors)));
  }
  return OkStatus();
}

}  // namespace cloudgen
