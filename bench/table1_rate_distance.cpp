// Table 1 reproduction: transmission rate vs. distance threshold for the
// 802.11a PHY model, verified against the RateTable implementation by
// sweeping distance and reporting the step boundaries the sweep discovers.
//
// Run: ./table1_rate_distance [--csv=path]

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "wmcast/mac/airtime.hpp"
#include "wmcast/util/cli.hpp"
#include "wmcast/util/stats.hpp"
#include "wmcast/util/table.hpp"
#include "wmcast/wlan/rate_table.hpp"

using namespace wmcast;

namespace {

int run(const util::Args& args) {
  args.reject_unknown({"csv"});

  std::printf("Table 1: transmission rate vs distance threshold (802.11a)\n");
  std::printf("paper source: Manshaei & Turletti, simulation-based 802.11a analysis\n\n");

  const auto table = wlan::RateTable::ieee80211a();

  // Discover the step boundaries by sweeping distance at 1 cm resolution --
  // this exercises rate_for_distance rather than just echoing the table.
  util::Table out({"rate_mbps", "max_distance_m", "sweep_verified",
                   "frame_1500B_us", "airtime_load_1Mbps"});
  for (const auto& step : table.steps()) {
    const double r_inside = table.rate_for_distance(step.max_distance_m - 0.01);
    const double r_at = table.rate_for_distance(step.max_distance_m);
    const double r_beyond = table.rate_for_distance(step.max_distance_m + 0.01);
    const bool verified = r_at == step.rate_mbps && r_inside >= step.rate_mbps &&
                          r_beyond < step.rate_mbps;
    out.add_row({util::fmt(step.rate_mbps, 0), util::fmt(step.max_distance_m, 0),
                 verified ? "yes" : "NO",
                 util::fmt(mac::frame_duration_us(1500, step.rate_mbps), 0),
                 util::fmt(mac::airtime_load(1.0, step.rate_mbps, 1500), 4)});
  }
  out.print();

  std::printf("\npaper Table 1:    54/35  48/40  36/60  24/85  18/105  12/145  6/200\n");
  std::printf("(frame duration and per-Mbps airtime-load columns are from our MAC\n"
              " substrate; the paper's load model is the ideal rate ratio.)\n");

  if (args.has("csv")) out.write_csv(args.get("csv", ""));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(argc, argv, run); }
