// Metric helpers: the per-client contribution CDF of Fig. 4 (right) and the
// realized per-client traffic table.
#pragma once

#include <cstddef>
#include <vector>

namespace fedsparse::fl {

/// Per-client average contributed elements per round, the statistic whose CDF
/// the paper plots in Fig. 4 (right).
std::vector<double> contribution_per_round(const std::vector<std::size_t>& totals,
                                           std::size_t rounds);

/// One timing-model "value" is a 32-bit float (footnote 5): realized bytes on
/// the wire are values × 4.
inline double values_to_bytes(double values) noexcept { return values * 4.0; }

/// Realized per-client traffic summary, one row per client — the columns the
/// scenario sweep emits alongside the paper's fairness CDF.
struct ClientTrafficRow {
  std::size_t client = 0;
  std::size_t rounds_participated = 0;
  double uplink_bytes = 0.0;
  double downlink_bytes = 0.0;
};

/// Builds the traffic table from per-client totals (all three spans must have
/// equal length; they come straight from SimulationResult).
std::vector<ClientTrafficRow> client_traffic_rows(
    const std::vector<double>& uplink_values, const std::vector<double>& downlink_values,
    const std::vector<std::size_t>& rounds_participated);

}  // namespace fedsparse::fl
