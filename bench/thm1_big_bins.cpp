/// Observation 1 / Theorems 1-2 as an executable experiment: sweep the
/// total small-bin capacity C_s across the regimes of Theorem 1 and report
/// the maximum load of big bins, of small bins, and overall. Expected: the
/// big-bin maximum stays a small constant (<< the proof's cap of 4)
/// everywhere; the overall maximum stays constant while C_s is inside the
/// theorem's threshold and degrades only gently beyond it.

#include <cmath>
#include <iostream>

#include "bench/common.hpp"
#include "core/nubb.hpp"
#include "theory/bounds.hpp"

using namespace nubb;

int main(int argc, char** argv) {
  CliParser cli(
      "thm1_big_bins: Observation 1 / Theorem 1 - max load split into big-bin and "
      "small-bin contributions as the small-bin capacity share grows.");
  bench::register_common(cli, /*default_seed=*/0xBB1);
  cli.add_int("n", 2000, "total number of bins");
  cli.add_int("big-cap", 64, "capacity of big bins (>= r ln n)");
  if (!cli.parse(argc, argv)) return 0;
  const auto opts = bench::read_common(cli);
  const auto n = static_cast<std::size_t>(cli.get_int("n"));
  const auto big_cap = static_cast<std::uint64_t>(cli.get_int("big-cap"));
  const std::uint64_t reps = bench::effective_reps(opts, 100);

  Timer timer;

  const double thm1_threshold =
      std::pow(static_cast<double>(n) * std::log(static_cast<double>(n)), 2.0 / 3.0);

  TextTable table("Observation 1 / Theorem 1: per-class max load vs small-bin share "
                  "(n=" + std::to_string(n) + ", big cap=" + std::to_string(big_cap) +
                  ", Thm-1 Cs threshold ~ " + TextTable::num(thm1_threshold, 0) +
                  ", reps=" + std::to_string(reps) + ")");
  table.set_header({"small bins", "Cs", "within Thm1?", "mean max (big)", "worst max (big)",
                    "mean max (small)", "mean max (all)"});
  auto csv = maybe_csv(opts.csv_dir, "thm1_big_bins.csv");
  if (csv) {
    csv->header({"small_bins", "Cs", "within_thm1", "mean_max_big", "worst_max_big",
                 "mean_max_small", "mean_max_all"});
  }

  for (const double frac : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.98}) {
    const auto small = static_cast<std::size_t>(static_cast<double>(n) * frac);
    const auto caps = two_class_capacities(small, 1, n - small, big_cap);
    const BinSampler sampler =
        BinSampler::from_policy(SelectionPolicy::proportional_to_capacity(), caps);

    RunningStats big_max;
    RunningStats small_max;
    RunningStats all_max;
    for (std::uint64_t r = 0; r < reps; ++r) {
      BinArray bins(caps);
      Xoshiro256StarStar rng(
          seed_for_replication(mix_seed(opts.seed, small), r));
      play_game(bins, sampler, GameConfig{}, rng);

      double big = 0.0;
      double small_load = 0.0;
      for (std::size_t i = 0; i < bins.size(); ++i) {
        if (bins.capacity(i) == big_cap) {
          big = std::max(big, bins.load_value(i));
        } else {
          small_load = std::max(small_load, bins.load_value(i));
        }
      }
      if (small < n) big_max.add(big);
      if (small > 0) small_max.add(small_load);
      all_max.add(bins.max_load().value());
    }

    // Every game throws m = C balls (GameConfig's default).
    std::uint64_t balls = 0;
    for (const std::uint64_t c : caps) balls += c;
    const bool within = bounds::theorem1_applies(static_cast<double>(balls),
                                                 static_cast<double>(n),
                                                 static_cast<double>(small), 1.0);
    table.add_row({TextTable::num(static_cast<std::uint64_t>(small)),
                   TextTable::num(static_cast<std::uint64_t>(small)),  // Cs = small * 1
                   within ? "yes" : "no",
                   small < n ? TextTable::num(big_max.mean()) : "-",
                   small < n ? TextTable::num(big_max.max()) : "-",
                   small > 0 ? TextTable::num(small_max.mean()) : "-",
                   TextTable::num(all_max.mean())});
    if (csv) {
      csv->row_numeric({static_cast<double>(small), static_cast<double>(small),
                        within ? 1.0 : 0.0, big_max.mean(), big_max.max(), small_max.mean(),
                        all_max.mean()});
    }
  }

  if (!opts.quiet) std::cout << table;
  std::cout << "Observation 1 load cap for big bins: "
            << bounds::observation1_big_bin_load_cap() << " (proof constant)\n";

  bench::finish("thm1_big_bins", timer, reps);
  return 0;
}
