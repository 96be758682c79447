#include "src/core/resource_model.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/nn/activations.h"
#include "src/util/check.h"

namespace cloudgen {
namespace {

// log softmax(x[0..n))[i]; `weights` is scratch.
double LogSoftmaxAt(const float* x, size_t n, size_t i, std::vector<double>* weights) {
  const double sum = MaxShiftedExp(x, n, weights);
  return std::log((*weights)[i] / sum);
}

}  // namespace

ResourceQuantizer::ResourceQuantizer(std::vector<double> levels) : levels_(std::move(levels)) {
  CG_CHECK(!levels_.empty());
  std::sort(levels_.begin(), levels_.end());
  for (size_t i = 1; i < levels_.size(); ++i) {
    CG_CHECK_MSG(levels_[i] > levels_[i - 1], "duplicate quantizer levels");
  }
}

size_t ResourceQuantizer::ClassOf(double value) const {
  const auto it = std::lower_bound(levels_.begin(), levels_.end(), value);
  if (it == levels_.begin()) {
    return 0;
  }
  if (it == levels_.end()) {
    return levels_.size() - 1;
  }
  const auto hi = static_cast<size_t>(it - levels_.begin());
  const size_t lo = hi - 1;
  return (value - levels_[lo]) <= (levels_[hi] - value) ? lo : hi;
}

Trace MultiResourceLstmModel::OnGrid(const Trace& trace) const {
  const size_t m = mem_->NumClasses();
  FlavorCatalog grid(cpu_->NumClasses() * m);
  for (size_t k = 0; k < grid.size(); ++k) {
    grid[k].id = static_cast<int32_t>(k);
    grid[k].cpus = cpu_->ValueOf(k / m);
    grid[k].memory_gb = mem_->ValueOf(k % m);
  }
  Trace out(std::move(grid), trace.WindowStart(), trace.WindowEnd());
  for (Job job : trace.Jobs()) {
    const Flavor& flavor = trace.Flavors()[static_cast<size_t>(job.flavor)];
    job.flavor =
        static_cast<int32_t>(cpu_->ClassOf(flavor.cpus) * m + mem_->ClassOf(flavor.memory_gb));
    out.Add(job);
  }
  return out;
}

Status MultiResourceLstmModel::Train(const Trace& train, const ResourceQuantizer& cpu,
                                     const ResourceQuantizer& mem, int history_days,
                                     const ResourceModelConfig& config, Rng& rng) {
  cpu_ = std::make_unique<ResourceQuantizer>(cpu);
  mem_ = std::make_unique<ResourceQuantizer>(mem);
  history_days_ = history_days;
  // Cluster c holds CPU class c's memory classes; the last holds EOB alone.
  FactoredVocabMap map;
  for (size_t c = 0; c <= cpu.NumClasses(); ++c) {
    map.offsets.push_back(static_cast<int32_t>(c * mem.NumClasses()));
  }
  map.offsets.push_back(map.offsets.back() + 1);
  constexpr TrainerIdentity kTrainer{"train.resource", "train.resource_epoch", "resource LSTM",
                                     kCheckpointStageResource};
  return joint_.Train(OnGrid(train), history_days, config, std::move(map), kTrainer, rng);
}

MultiResourceLstmModel::EvalResult MultiResourceLstmModel::Evaluate(const Trace& test) const {
  CG_CHECK(IsTrained());
  const FlavorStream stream = BuildFlavorStream(OnGrid(test), history_days_);
  const FlavorInputEncoder encoder(joint_.Vocab(), TemporalFeatureEncoder(history_days_));
  const SequenceNetwork& network = joint_.Network();
  const size_t clusters = network.FactoredHead().NumClusters();
  const size_t m = mem_->NumClasses();
  const size_t eob = encoder.Vocab().EobToken();
  LstmState state = network.MakeState(1);
  StepWorkspace ws;
  Matrix input(1, encoder.Dim());
  Matrix row;  // The head's concat [u | v].
  std::vector<double> weights;
  EvalResult result;
  for (size_t step = 0; step < stream.tokens.size(); ++step) {
    const size_t prev = step == 0 ? eob : static_cast<size_t>(stream.tokens[step - 1]);
    encoder.EncodeInto(prev, stream.periods[step], stream.doh_days[step], input.Row(0));
    network.StepLogits(input, &state, &row, &ws);
    const auto token = static_cast<size_t>(stream.tokens[step]);
    if (token == eob) {
      continue;  // Chain-rule NLL over resource steps only.
    }
    const size_t cpu = token / m;
    result.cpu_nll -= LogSoftmaxAt(row.Row(0), clusters, cpu, &weights);
    result.mem_nll -= LogSoftmaxAt(row.Row(0) + clusters + cpu * m, m, token % m, &weights);
    ++result.steps;
  }
  if (result.steps > 0) {
    result.cpu_nll /= static_cast<double>(result.steps);
    result.mem_nll /= static_cast<double>(result.steps);
    result.joint_nll = result.cpu_nll + result.mem_nll;
  }
  return result;
}

MultiResourceLstmModel::Generator::Generator(const MultiResourceLstmModel& model, int doh_day)
    : tokens_(model.joint_, doh_day), mem_classes_(model.mem_->NumClasses()) {}

std::vector<std::vector<ResourceRequest>> MultiResourceLstmModel::Generator::GeneratePeriod(
    int64_t period, int64_t n_batches, Rng& rng, size_t max_jobs) {
  tokens_.StartPeriod(period, n_batches, max_jobs);
  while (tokens_.PeriodActive()) {
    tokens_.StepToken(rng);
  }
  std::vector<std::vector<ResourceRequest>> batches;
  for (const std::vector<int32_t>& tokens : tokens_.TakeBatches()) {
    std::vector<ResourceRequest>& batch = batches.emplace_back();
    for (const int32_t token : tokens) {
      const auto joint = static_cast<size_t>(token);
      batch.push_back({joint / mem_classes_, joint % mem_classes_});
    }
  }
  return batches;
}

}  // namespace cloudgen
