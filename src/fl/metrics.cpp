#include "fl/metrics.h"

#include <stdexcept>

namespace fedsparse::fl {

std::vector<ClientTrafficRow> client_traffic_rows(
    const std::vector<double>& uplink_values, const std::vector<double>& downlink_values,
    const std::vector<std::size_t>& rounds_participated) {
  if (uplink_values.size() != downlink_values.size() ||
      uplink_values.size() != rounds_participated.size()) {
    throw std::invalid_argument("client_traffic_rows: per-client spans differ in length");
  }
  std::vector<ClientTrafficRow> rows(uplink_values.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].client = i;
    rows[i].rounds_participated = rounds_participated[i];
    rows[i].uplink_bytes = values_to_bytes(uplink_values[i]);
    rows[i].downlink_bytes = values_to_bytes(downlink_values[i]);
  }
  return rows;
}

std::vector<double> contribution_per_round(const std::vector<std::size_t>& totals,
                                           std::size_t rounds) {
  std::vector<double> out(totals.size(), 0.0);
  if (rounds == 0) return out;
  for (std::size_t i = 0; i < totals.size(); ++i) {
    out[i] = static_cast<double>(totals[i]) / static_cast<double>(rounds);
  }
  return out;
}

}  // namespace fedsparse::fl
