// Ablation (§2.3.1): hazard vs. PMF parameterization of the lifetime LSTM.
//
// Kvamme & Borgan report that parameterizing the discrete hazard works
// "slightly better" than parameterizing the PMF; the paper follows the hazard
// construction. This bench trains both heads with identical budgets on the
// AzureLike training split and compares per-job NLL (directly comparable
// across heads), 1-best error, and Survival-MSE with CDI interpolation.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/core/lifetime_model.h"
#include "src/eval/workbench.h"
#include "src/survival/interpolation.h"
#include "src/survival/metrics.h"
#include "src/util/rng.h"

namespace cloudgen {
namespace {

double SurvivalMseFor(const LifetimeLstmModel& model, const Trace& test,
                      const LifetimeBinning& binning) {
  const std::vector<std::vector<double>> hazards = model.PredictHazards(test);
  std::vector<SurvivalFn> fns;
  std::vector<double> lifetimes;
  for (size_t i = 0; i < test.NumJobs(); ++i) {
    if (test.Jobs()[i].censored) {
      continue;
    }
    const auto curve =
        std::make_shared<SurvivalCurve>(hazards[i], binning, Interpolation::kCdi);
    fns.push_back([curve](double t) { return curve->Survival(t); });
    lifetimes.push_back(test.Jobs()[i].LifetimeSeconds());
  }
  const std::vector<double> grid = MakeSurvivalMseGrid(20.0 * 86400.0, 100);
  return MeanSurvivalMse(fns, lifetimes, grid);
}

int Run() {
  PrintBanner("Ablation: lifetime head parameterization (hazard vs PMF)");
  CloudWorkbench workbench(CloudKind::kAzureLike, DefaultWorkbenchOptions());
  const Trace& train = workbench.Splits().train;
  const Trace& test = workbench.Splits().test;
  const LifetimeBinning binning = MakePaperBinning();

  // A reduced, identical budget for both heads (this is a head comparison,
  // not a headline number).
  LifetimeModelConfig config = workbench.ModelConfig().lifetime;
  config.hidden_dim = 64;
  config.epochs = std::max<size_t>(6, config.epochs / 3);

  std::printf("%zu training jobs, %zu epochs per head\n\n", train.NumJobs(),
              config.epochs);
  std::printf("%-8s | %10s | %10s | %14s\n", "head", "job NLL", "1-Best-Err",
              "Survival-MSE");
  for (const LifetimeHead head : {LifetimeHead::kHazard, LifetimeHead::kPmf}) {
    LifetimeModelConfig head_config = config;
    head_config.head = head;
    LifetimeLstmModel model;
    Rng rng(4242);  // Identical init/order for both heads.
    const Status trained =
        model.Train(train, binning, workbench.Model().HistoryDays(), head_config, rng);
    if (!trained.ok()) {
      std::fprintf(stderr, "lifetime training failed: %s\n", trained.ToString().c_str());
      return 1;
    }
    const auto eval = model.Evaluate(test);
    std::printf("%-8s | %10.3f | %9.1f%% | %13.2f%%\n",
                head == LifetimeHead::kHazard ? "hazard" : "PMF", eval.job_nll,
                eval.one_best_err * 100.0, 100.0 * SurvivalMseFor(model, test, binning));
  }
  std::printf("\n(Kvamme & Borgan / the paper: hazard slightly better than PMF)\n");
  return 0;
}

}  // namespace
}  // namespace cloudgen

int main() { return cloudgen::Run(); }
