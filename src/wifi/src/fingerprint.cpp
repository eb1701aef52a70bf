#include "perpos/wifi/fingerprint.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace perpos::wifi {

FingerprintDatabase FingerprintDatabase::survey(const SignalModel& model,
                                                const Building& building,
                                                double grid_m,
                                                int surveys_per_point,
                                                perpos::sim::Random* random) {
  FingerprintDatabase db;
  db.set_frame_id(building.name());
  const geo::LocalBox& box = building.footprint();
  for (double y = box.min_y + grid_m / 2.0; y < box.max_y; y += grid_m) {
    for (double x = box.min_x + grid_m / 2.0; x < box.max_x; x += grid_m) {
      const LocalPoint p{x, y};
      if (!building.inside_footprint(p)) continue;

      Fingerprint fp;
      fp.position = p;
      if (surveys_per_point > 0 && random != nullptr) {
        // Average several noisy scans per point.
        std::map<std::string, std::pair<double, int>> acc;
        for (int s = 0; s < surveys_per_point; ++s) {
          const RssiScan scan =
              model.scan_at(p, *random, perpos::sim::SimTime::zero());
          for (const RssiReading& r : scan.readings) {
            auto& [sum, count] = acc[r.ap_id];
            sum += r.rssi_dbm;
            ++count;
          }
        }
        for (const auto& [ap, sc] : acc) {
          fp.readings.push_back(
              RssiReading{ap, sc.first / static_cast<double>(sc.second)});
        }
      } else {
        const RssiScan scan =
            model.ideal_scan_at(p, perpos::sim::SimTime::zero());
        fp.readings = scan.readings;
      }
      if (!fp.readings.empty()) db.add(std::move(fp));
    }
  }
  return db;
}

// The k-NN hot loop. Its AP-matching inner loop is a few bytes long, and
// whether its compare-and-branch straddles a 32-byte boundary (the Intel
// JCC erratum) otherwise depends on the size of unrelated code linked
// before it; at 64-byte alignment it does not, whatever else changes.
[[gnu::aligned(64)]] double FingerprintDatabase::signal_distance(
    const RssiScan& scan, const std::vector<RssiReading>& reference,
    double missing_rssi_dbm) {
  double sum_sq = 0.0;
  std::size_t dims = 0;

  for (const RssiReading& s : scan.readings) {
    double ref = missing_rssi_dbm;
    for (const RssiReading& r : reference) {
      if (r.ap_id == s.ap_id) {
        ref = r.rssi_dbm;
        break;
      }
    }
    const double d = s.rssi_dbm - ref;
    sum_sq += d * d;
    ++dims;
  }
  // APs present in the reference but missing from the scan.
  for (const RssiReading& r : reference) {
    if (scan.find(r.ap_id) != nullptr) continue;
    const double d = missing_rssi_dbm - r.rssi_dbm;
    sum_sq += d * d;
    ++dims;
  }
  return dims == 0 ? std::numeric_limits<double>::infinity()
                   : std::sqrt(sum_sq / static_cast<double>(dims));
}

std::optional<LocalPosition> FingerprintDatabase::estimate(
    const RssiScan& scan, const KnnConfig& config) const {
  if (scan.readings.empty() || fingerprints_.empty()) return std::nullopt;

  std::vector<std::pair<double, const Fingerprint*>> ranked;
  ranked.reserve(fingerprints_.size());
  for (const Fingerprint& fp : fingerprints_) {
    ranked.emplace_back(
        signal_distance(scan, fp.readings, config.missing_rssi_dbm), &fp);
  }
  const std::size_t k = std::min(config.k, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + k, ranked.end(),
                    [](const auto& a, const auto& b) {
                      return a.first < b.first;
                    });

  // Inverse-distance weighted centroid of the k nearest fingerprints.
  double wx = 0.0, wy = 0.0, wsum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double w = 1.0 / (ranked[i].first + 0.1);
    wx += w * ranked[i].second->position.x;
    wy += w * ranked[i].second->position.y;
    wsum += w;
  }
  LocalPosition out;
  out.point = {wx / wsum, wy / wsum};
  out.timestamp = scan.timestamp;

  // Accuracy: RMS spread of the neighbours around the estimate.
  double spread_sq = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const LocalPoint& p = ranked[i].second->position;
    const double dx = p.x - out.point.x;
    const double dy = p.y - out.point.y;
    spread_sq += dx * dx + dy * dy;
  }
  out.accuracy_m = std::sqrt(spread_sq / static_cast<double>(k)) + 1.0;
  return out;
}

}  // namespace perpos::wifi
