// Heterogeneous networks end to end: what stragglers and churn do to a round,
// and how the adaptive controller reacts.
//
// Part 1 prices one synchronized round by hand under a bimodal fast/slow
// population — the straggler formula
//   τ_m = max_i compute_i + β·(v_i/up_i + d/down_min)/(2D)
// versus the same formula over default profiles (the paper's Section V
// model), for the same payloads.
//
// Part 2 trains the same federated task under "uniform" and "bimodal" with
// Algorithm 3 adapting k, then reports where k settled, who bound the rounds,
// and each client's realized bytes on the wire.
//
//   ./examples/network_scenarios [--rounds=150] [--beta=10]
#include <cstdio>

#include "core/fedsparse.h"

int main(int argc, char** argv) {
  using namespace fedsparse;
  try {
    util::Flags flags(argc, argv);
    const double beta = flags.get_double("beta", 10.0, "communication time of a full exchange");
    const long rounds = flags.get_int("rounds", 150, "training rounds per scenario");
    flags.check_unknown();

    // --- Part 1: one round, priced by hand --------------------------------
    const std::size_t n = 4, dim = 10000, k = 200;
    fl::NetworkConfig net;
    net.profiles.assign(n, fl::ClientProfile{});
    net.profiles[3] = {0.1, 0.5, 2.0};  // one DSL straggler: 10x slower uplink

    const fl::NetworkModel paper(beta, 1.0, dim, fl::NetworkConfig{}, n, /*seed=*/1);
    fl::NetworkModel model(beta, 1.0, dim, net, n, /*seed=*/1);
    model.begin_round(1);
    const std::vector<std::size_t> ids = {0, 1, 2, 3};
    // Everyone uploads 2k values; the broadcast carries 2k values back.
    const std::vector<double> uplinks(n, 2.0 * static_cast<double>(k));
    const auto tau = model.round_time(ids, uplinks, 2.0 * k);
    std::printf("one round, k=%zu of D=%zu, beta=%g\n", k, dim, beta);
    std::printf("  homogeneous Section V model: tau = %.3f\n",
                paper.theta(static_cast<double>(k), ids));
    std::printf("  bimodal straggler formula:   tau = %.3f (bound by client %lld)\n\n",
                tau.time, static_cast<long long>(tau.slowest_client));

    // --- Part 2: adaptive k under three scenarios -------------------------
    // churn_heavy adds the cross-device regime: most clients offline per
    // round, accumulating locally and flushing their residuals on rejoin.
    for (const char* scenario : {"uniform", "bimodal", "churn_heavy"}) {
      core::TrainerConfig cfg;
      cfg.dataset.name = "femnist";
      cfg.dataset.scale = 0.08;
      cfg.model.name = "mlp";
      cfg.model.hidden = 32;
      cfg.method = "fab_topk";
      cfg.scenario = scenario;
      cfg.controller.name = "extended_sign_ogd";
      cfg.sim.comm_time = beta;
      cfg.sim.max_rounds = static_cast<std::size_t>(rounds);
      cfg.sim.eval_every = 10;
      cfg.sim.seed = 7;

      const auto res = core::FederatedTrainer(cfg).run();
      const auto [modal, modal_count] = res.modal_straggler();
      std::printf("%s: loss %.4f after %zu rounds (cost %.1f), adaptive k settled ~%.0f\n",
                  scenario, res.final_loss, res.rounds_run, res.total_time, res.tail_k_mean());
      const std::size_t fleet = res.client_rounds_participated.size();
      std::size_t thin_rounds = 0;  // rounds that lost clients to churn
      for (const auto& r : res.records) thin_rounds += r.participants < fleet ? 1 : 0;
      if (thin_rounds > 0) {
        std::printf("  churn: %zu/%zu rounds ran without the full fleet\n", thin_rounds,
                    res.rounds_run);
      }
      if (modal >= 0) {
        std::printf("  straggler: client %lld bound %zu/%zu rounds\n",
                    static_cast<long long>(modal), modal_count, res.rounds_run);
      } else {
        std::printf("  straggler: none (every participant finished together)\n");
      }
      const auto traffic = fl::client_traffic_rows(
          res.client_uplink_values, res.client_downlink_values, res.client_rounds_participated);
      double total_up = 0.0;
      for (const auto& row : traffic) total_up += row.uplink_bytes;
      std::printf("  realized uplink: %.2f MB total across %zu clients\n\n", total_up / 1e6,
                  traffic.size());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
