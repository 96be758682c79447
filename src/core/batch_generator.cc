#include "src/core/batch_generator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>

#include "src/obs/fidelity_monitor.h"
#include "src/obs/metrics.h"
#include "src/util/cancel.h"
#include "src/util/check.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace cloudgen {

TraceStreamMachine::TraceStreamMachine(const WorkloadModel& model,
                                       const WorkloadModel::GenerateOptions& options,
                                       uint64_t base, size_t index)
    : TraceStreamMachine(model, model.ArrivalModel(), options, Rng::Stream(base, index),
                         /*pause_at_periods=*/false) {
  index_ = index;
}

TraceStreamMachine::TraceStreamMachine(const WorkloadModel& model,
                                       const BatchArrivalModel& arrivals,
                                       const WorkloadModel::GenerateOptions& options,
                                       Rng rng, bool pause_at_periods)
    : model_(model),
      options_(options),
      arrivals_(arrivals),
      binning_(model.LifetimeModel().Binning()),
      cancel_(pause_at_periods ? nullptr : options.cancel),
      pause_at_periods_(pause_at_periods),
      rng_(rng),
      trace_(model.Flavors(), options.from_period, options.to_period),
      // The first draw: one DOH day per trace, from the model's own arrival
      // stage even under an override (a no-DOH arrival model has no
      // meaningful DOH day of its own).
      doh_day_(model.ArrivalModel().SampleDohDay(rng_, options.doh_mode)),
      flavor_gen_(model.FlavorModel(), doh_day_, options.eob_scale, options.guard),
      lifetime_gen_(model.LifetimeModel(), doh_day_, options.guard),
      factored_flavor_(model.FlavorModel().Network().IsFactored()),
      period_(options.from_period) {}

void TraceStreamMachine::Advance() {
  // Hot-path metric handles, registered once per process (see metrics.h).
  static obs::Counter& period_counter = obs::Registry::Global().GetCounter("gen.periods");
  static obs::Counter& batch_counter = obs::Registry::Global().GetCounter("gen.batches");
  static obs::Counter& job_counter = obs::Registry::Global().GetCounter("gen.jobs");
  // Observe-only fidelity hook (src/obs/fidelity_monitor.h): one relaxed
  // load when the monitor is off, never an Rng touch either way.
  obs::FidelityMonitor& fidelity = obs::FidelityMonitor::Global();
  // Leaving a pause enters the period the machine is paused at.
  bool enter = need_ == Need::kPeriodStart;
  for (;;) {
    switch (phase_) {
      case Phase::kPeriodStart: {
        if (period_ >= options_.to_period) {
          need_ = Need::kDone;
          return;
        }
        if (pause_at_periods_ && !enter) {
          need_ = Need::kPeriodStart;
          return;
        }
        enter = false;
        if (cancel_ != nullptr && cancel_->Poll()) {
          // Partial trace: the driver discards it, never persists it.
          need_ = Need::kDone;
          return;
        }
        // A no-DOH arrival override ignores the day argument internally.
        const int arrivals_doh = std::min(doh_day_, std::max(1, arrivals_.HistoryDays()));
        const double rate = arrivals_.Rate(period_, arrivals_doh) * options_.arrival_scale;
        const int64_t n_batches = rng_.Poisson(rate);
        period_counter.Add(1);
        fidelity.ObservePeriodBatches(n_batches);
        if (n_batches == 0) {
          ++period_;
          break;
        }
        flavor_gen_.StartPeriod(period_, n_batches, kGenMaxJobsPerPeriod);
        phase_ = Phase::kFlavor;
        break;
      }
      case Phase::kFlavor: {
        if (flavor_gen_.PeriodActive() &&
            !(cancel_ != nullptr && cancel_->Cancelled())) {
          need_ = Need::kFlavorStep;
          return;
        }
        // Period's token stream is complete (or cancelled mid-stream, in
        // which case the partial batches still flow through the lifetime
        // stage; the caller discards the partial trace).
        batches_ = flavor_gen_.TakeBatches();
        batch_counter.Add(static_cast<uint64_t>(batches_.size()));
        batch_idx_ = 0;
        job_idx_ = 0;
        if (!batches_.empty()) {
          user_ = next_user_++;
          job_counter.Add(static_cast<uint64_t>(batches_[0].size()));
        }
        phase_ = Phase::kLifetime;
        break;
      }
      case Phase::kLifetime: {
        while (batch_idx_ < batches_.size() &&
               job_idx_ >= batches_[batch_idx_].size()) {
          ++batch_idx_;
          job_idx_ = 0;
          if (batch_idx_ < batches_.size()) {
            user_ = next_user_++;
            job_counter.Add(static_cast<uint64_t>(batches_[batch_idx_].size()));
          }
        }
        if (batch_idx_ < batches_.size()) {
          need_ = Need::kLifetimeStep;
          return;
        }
        ++period_;
        phase_ = Phase::kPeriodStart;
        break;
      }
    }
  }
}

void TraceStreamMachine::BeginNeededStep(float* x_row) {
  if (need_ == Need::kFlavorStep) {
    flavor_gen_.BeginStep(x_row);
    return;
  }
  CG_DCHECK(need_ == Need::kLifetimeStep);
  const std::vector<int32_t>& batch = batches_[batch_idx_];
  lifetime_gen_.BeginJobStep(period_, batch[job_idx_], batch.size(), x_row);
}

void TraceStreamMachine::FinishNeededStep() {
  if (need_ == Need::kFlavorStep) {
    flavor_gen_.ConsumeStep(rng_);
  } else {
    CG_DCHECK(need_ == Need::kLifetimeStep);
    EmitJob(lifetime_gen_.ConsumeJobStep(rng_));
  }
  Advance();
}

void TraceStreamMachine::RunNeededStepSingle() {
  if (need_ == Need::kFlavorStep) {
    flavor_gen_.StepToken(rng_);
  } else {
    CG_DCHECK(need_ == Need::kLifetimeStep);
    const std::vector<int32_t>& batch = batches_[batch_idx_];
    EmitJob(lifetime_gen_.StepJob(period_, batch[job_idx_], batch.size(), rng_));
  }
  Advance();
}

void TraceStreamMachine::RunSingle() {
  Advance();
  while (need_ == Need::kFlavorStep || need_ == Need::kLifetimeStep) {
    RunNeededStepSingle();
  }
}

void TraceStreamMachine::EmitJob(size_t bin) {
  const double duration =
      SampleDurationInBin(binning_, bin, options_.interpolation, rng_);
  Job job;
  job.start_period = period_;
  job.end_period =
      period_ + static_cast<int64_t>(std::llround(duration / kSecondsPerPeriod));
  job.flavor = batches_[batch_idx_][job_idx_];
  job.user = user_;
  job.censored = false;
  obs::FidelityMonitor::Global().ObserveJob(job.LifetimeSeconds(), job.flavor);
  trace_.Add(job);
  ++job_idx_;
}

LstmState* TraceStreamMachine::StepState() {
  return need_ == Need::kFlavorStep ? flavor_gen_.MutableState()
                                    : lifetime_gen_.MutableState();
}

Matrix* TraceStreamMachine::StepLogits() {
  return need_ == Need::kFlavorStep ? flavor_gen_.MutableLogits()
                                    : lifetime_gen_.MutableLogits();
}

bool TraceStreamMachine::StepWantsLogits() const {
  return need_ != Need::kFlavorStep || !factored_flavor_;
}

std::string TraceStreamMachine::SaveState() const {
  CG_CHECK(phase_ == Phase::kPeriodStart);
  std::ostringstream out;
  const int32_t doh_day = doh_day_;
  out.write(reinterpret_cast<const char*>(&doh_day), sizeof(doh_day));
  out.write(reinterpret_cast<const char*>(&next_user_), sizeof(next_user_));
  flavor_gen_.SaveState(out);
  lifetime_gen_.SaveState(out);
  rng_.SaveState(out);
  return std::move(out).str();
}

Status TraceStreamMachine::LoadState(const std::string& blob, int64_t period) {
  std::istringstream in(blob);
  int32_t doh_day = 0;
  in.read(reinterpret_cast<char*>(&doh_day), sizeof(doh_day));
  in.read(reinterpret_cast<char*>(&next_user_), sizeof(next_user_));
  if (!in) {
    return DataLossError("truncated generator state");
  }
  if (doh_day < 1 || doh_day > model_.HistoryDays()) {
    return FailedPreconditionError(
        StrFormat("generator state has DOH day %d; the model knows days 1..%d",
                  static_cast<int>(doh_day), model_.HistoryDays()));
  }
  doh_day_ = doh_day;
  CG_RETURN_IF_ERROR(flavor_gen_.LoadState(in, doh_day_));
  CG_RETURN_IF_ERROR(lifetime_gen_.LoadState(in, doh_day_));
  rng_.LoadState(in);
  if (!in) {
    return DataLossError("truncated Rng state in generator state");
  }
  if (in.peek() != std::char_traits<char>::eof()) {
    return DataLossError("trailing bytes after generator state");
  }
  period_ = period;
  phase_ = Phase::kPeriodStart;
  need_ = Need::kDone;
  return OkStatus();
}

BatchTraceEngine::BatchTraceEngine(const WorkloadModel& model,
                                   const WorkloadModel::GenerateOptions& options,
                                   uint64_t base)
    : model_(model), options_(options), base_(base) {}

void BatchTraceEngine::RunStrided(size_t first, size_t stride, size_t end,
                                  size_t window,
                                  const std::function<bool(size_t, Trace&&)>& emit) {
  CG_CHECK(window >= 1);
  stride = std::max<size_t>(1, stride);
  // Hot-path metric handles, registered once per process (see metrics.h).
  static obs::Counter& tick_counter =
      obs::Registry::Global().GetCounter("gen.batch.ticks");
  static obs::Counter& row_counter =
      obs::Registry::Global().GetCounter("gen.batch.rows");

  const SequenceNetwork& flavor_net = model_.FlavorModel().Network();
  const SequenceNetwork& lifetime_net = model_.LifetimeModel().Network();
  std::vector<std::unique_ptr<TraceStreamMachine>> active;
  std::vector<TraceStreamMachine*> flavor_group;
  std::vector<TraceStreamMachine*> lifetime_group;
  size_t next = first;

  for (;;) {
    // Retire finished traces (compacting the active set) and refill the
    // window from the remaining indices.
    size_t live = 0;
    for (auto& m : active) {
      if (m->need() == TraceStreamMachine::Need::kDone) {
        if (!emit(m->index(), m->TakeTrace())) {
          return;
        }
      } else {
        active[live++] = std::move(m);
      }
    }
    active.resize(live);
    while (active.size() < window && next < end) {
      auto m = std::make_unique<TraceStreamMachine>(model_, options_, base_, next);
      next += stride;
      m->Advance();
      if (m->need() == TraceStreamMachine::Need::kDone) {
        if (!emit(m->index(), m->TakeTrace())) {
          return;
        }
      } else {
        active.push_back(std::move(m));
      }
    }
    if (active.empty()) {
      return;
    }

    // One tick: every active machine needs exactly one LSTM step; run each
    // network's group as one gathered batch.
    flavor_group.clear();
    lifetime_group.clear();
    for (auto& m : active) {
      (m->need() == TraceStreamMachine::Need::kFlavorStep ? flavor_group
                                                          : lifetime_group)
          .push_back(m.get());
    }
    tick_counter.Add(1);
    row_counter.Add(static_cast<uint64_t>(active.size()));
    ticks_ += 1;
    rows_ += static_cast<uint64_t>(active.size());
    if (!flavor_group.empty()) {
      StepGroup(flavor_net, flavor_group, &flavor_ws_);
    }
    if (!lifetime_group.empty()) {
      StepGroup(lifetime_net, lifetime_group, &lifetime_ws_);
    }
  }
}

void BatchTraceEngine::StepGroup(const SequenceNetwork& net,
                                 const std::vector<TraceStreamMachine*>& group,
                                 BatchStepWorkspace* ws) {
  static obs::Counter& single_counter =
      obs::Registry::Global().GetCounter("gen.batch.singles");
  if (group.size() == 1) {
    // A 1-row batch would run the same step with gather/scatter copies on
    // top; stepping the machine's own state skips them.
    single_counter.Add(1);
    group[0]->RunNeededStepSingle();
    return;
  }
  const size_t rows = group.size();
  net.EnsureBatchStep(rows, ws);
  const size_t layers = ws->state.h.size();
  const size_t hidden = net.Config().hidden_dim;
  for (size_t r = 0; r < rows; ++r) {
    group[r]->BeginNeededStep(ws->x.Row(r));
    const LstmState* state = group[r]->StepState();
    for (size_t l = 0; l < layers; ++l) {
      const float* h = state->h[l].Row(0);
      const float* c = state->c[l].Row(0);
      std::copy(h, h + hidden, ws->state.h[l].Row(r));
      std::copy(c, c + hidden, ws->state.c[l].Row(r));
    }
  }
  net.StepBatch(ws);
  const size_t out_dim = net.Config().output_dim;
  for (size_t r = 0; r < rows; ++r) {
    LstmState* state = group[r]->StepState();
    for (size_t l = 0; l < layers; ++l) {
      const float* h = ws->state.h[l].Row(r);
      const float* c = ws->state.c[l].Row(r);
      std::copy(h, h + hidden, state->h[l].Row(0));
      std::copy(c, c + hidden, state->c[l].Row(0));
    }
    if (group[r]->StepWantsLogits()) {
      Matrix* logits = group[r]->StepLogits();
      if (logits->Rows() != 1 || logits->Cols() != out_dim) {
        logits->Resize(1, out_dim);
      }
      const float* src = ws->logits.Row(r);
      std::copy(src, src + out_dim, logits->Row(0));
    }
    group[r]->FinishNeededStep();
  }
}

void RunShardedBatchEngines(const WorkloadModel& model,
                            const WorkloadModel::GenerateOptions& options,
                            uint64_t base, size_t first, size_t count,
                            size_t window, size_t shards,
                            const std::function<bool(size_t, Trace&&)>& emit) {
  static obs::Counter& shard_tick_counter =
      obs::Registry::Global().GetCounter("gen.shard.ticks");
  static obs::Counter& shard_row_counter =
      obs::Registry::Global().GetCounter("gen.shard.rows");
  static obs::Gauge& occupancy_gauge =
      obs::Registry::Global().GetGauge("gen.shard.occupancy");

  CG_CHECK(window >= 1);
  shards = std::max<size_t>(1, std::min(shards, std::max<size_t>(1, count)));
  const size_t end = first + count;

  // The reorder buffer: traces retire in completion order (interleaved
  // across shards) and leave here strictly in index order. One mutex
  // serializes `emit`; a false return latches `stop` so every shard winds
  // down at its next retire without touching `emit` again.
  std::mutex emit_mu;
  std::atomic<bool> stop{false};
  std::map<size_t, Trace> pending;
  size_t next_emit = first;
  auto in_order_emit = [&](size_t index, Trace&& trace) {
    if (stop.load(std::memory_order_relaxed)) {
      return false;
    }
    std::lock_guard<std::mutex> lock(emit_mu);
    if (stop.load(std::memory_order_relaxed)) {
      return false;
    }
    pending.emplace(index, std::move(trace));
    while (!pending.empty() && pending.begin()->first == next_emit) {
      Trace ready = std::move(pending.begin()->second);
      pending.erase(pending.begin());
      if (!emit(next_emit++, std::move(ready))) {
        stop.store(true, std::memory_order_relaxed);
        return false;
      }
    }
    return true;
  };

  std::vector<std::unique_ptr<BatchTraceEngine>> engines;
  engines.reserve(shards);
  if (shards == 1) {
    engines.push_back(std::make_unique<BatchTraceEngine>(model, options, base));
    engines.back()->RunStrided(first, 1, end, window, in_order_emit);
  } else {
    // One engine per shard, each a pool task.
    std::vector<std::function<void()>> tasks;
    tasks.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
      engines.push_back(std::make_unique<BatchTraceEngine>(model, options, base));
      BatchTraceEngine* engine = engines.back().get();
      const size_t shard_first = first + s;
      tasks.push_back([engine, shard_first, shards, end, window, &in_order_emit] {
        engine->RunStrided(shard_first, shards, end, window, in_order_emit);
      });
    }
    GlobalThreadPool().RunAll(tasks);
  }

  uint64_t ticks = 0;
  uint64_t rows = 0;
  for (const auto& engine : engines) {
    ticks += engine->TicksRun();
    rows += engine->RowsStepped();
  }
  shard_tick_counter.Add(ticks);
  shard_row_counter.Add(rows);
  if (ticks > 0) {
    occupancy_gauge.Set(static_cast<double>(rows) /
                        (static_cast<double>(ticks) * static_cast<double>(window)));
  }
}

}  // namespace cloudgen
