// Ablation bench (extension beyond the paper's figures): isolates the
// FAB-top-k design choices the paper argues for (Sections III and IV).
//
//   1. fairness        — FAB-top-k vs FUB-top-k at the same k (what does the
//                        ⌊k/N⌋ guarantee cost/buy?);
//   2. accumulation    — FAB-top-k with vs without the accumulated local
//                        gradient a_i (the residual mechanism the paper
//                        credits for convergence).
#include <cmath>

#include "common.h"

using namespace fedsparse;

namespace {

// FAB-top-k with the accumulator disabled: every round, all residual mass is
// dropped (reset covers the full coordinate range).
class FabNoAccumulation final : public sparsify::Method {
 public:
  explicit FabNoAccumulation(std::size_t dim) : inner_(dim) {}
  std::string name() const override { return "fab_topk_noacc"; }
  sparsify::RoundOutcome round(const sparsify::RoundInput& in, std::size_t k) override {
    auto out = inner_.round(in, k);
    out.reset_kind = sparsify::RoundOutcome::ResetKind::kAll;
    out.reset_indices.clear();
    out.reset_offsets.clear();
    return out;
  }

 private:
  sparsify::FabTopK inner_;
};

void report(const char* arm, const fl::SimulationResult& res) {
  std::printf("# %-28s rounds=%-5zu time=%-9.1f final_loss=%-8.4f final_acc=%.4f\n", arm,
              res.rounds_run, res.total_time, res.final_loss, res.final_accuracy);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Flags flags(argc, argv);
    bench::CommonArgs args = bench::parse_common(flags);
    args.rounds = flags.get_int("fig_rounds", 250, "rounds per arm");
    const double k_frac = flags.get_double("k_frac", 0.0025, "fixed-k arms: k/D");
    flags.check_unknown();
    bench::banner("ablation_design", "FAB-top-k design-choice ablations");

    core::TrainerConfig base = bench::base_config(args);
    base.sim.max_rounds = static_cast<std::size_t>(args.rounds);
    core::FederatedTrainer probe(base);
    const double d = static_cast<double>(probe.dim());
    const double k = std::max(2.0, std::round(k_frac * d));
    std::printf("# D=%.0f fixed k=%.0f beta=%g rounds=%ld\n", d, k, args.beta, args.rounds);

    // --- 1 & 2: fairness and accumulation at fixed k --------------------
    {
      core::TrainerConfig cfg = base;
      cfg.method = "fab_topk";
      cfg.controller.name = "fixed";
      cfg.controller.fixed_k = k;
      const auto res = core::FederatedTrainer(cfg).run();
      bench::emit_curves(args.out_dir, "ablation_design", "fab", res);
      report("fab_topk (paper)", res);
    }
    {
      core::TrainerConfig cfg = base;
      cfg.method = "fub_topk";
      cfg.controller.name = "fixed";
      cfg.controller.fixed_k = k;
      const auto res = core::FederatedTrainer(cfg).run();
      bench::emit_curves(args.out_dir, "ablation_design", "fub_no_fairness", res);
      report("fub_topk (no fairness)", res);
    }
    {
      core::TrainerConfig cfg = base;
      cfg.controller.name = "fixed";
      cfg.controller.fixed_k = k;
      const auto data_cfg = core::resolve_dataset(cfg.dataset);
      auto factory = core::resolve_model(cfg.model, data_cfg);
      fl::Simulation sim(cfg.sim, data::make_synthetic(data_cfg), factory,
                         std::make_unique<FabNoAccumulation>(probe.dim()),
                         std::make_unique<online::FixedK>(k));
      const auto res = sim.run();
      bench::emit_curves(args.out_dir, "ablation_design", "fab_no_accumulation", res);
      report("fab_topk (no accumulation)", res);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ablation_design: %s\n", e.what());
    return 1;
  }
}
