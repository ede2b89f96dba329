// Ablation A6: online operation under increasing arrival rate. Serves one
// churn timeline per (rate, seed) through the churn engine (src/sim/churn)
// three times, with DMRA, DCSP and NonCo placing every arrival against a
// live ledger, and reports the state at the end of the horizon — the
// dynamic counterpart of the static Figs. 2–5.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  dmra::Cli cli;
  cli.add_flag("rates", "12,20,28,36", "Poisson arrival rates (UEs/s) to sweep; dwell 40 s");
  cli.add_flag("horizon", "3000", "events served after the steady-state prefill");
  cli.add_flag("seeds", "5", "seeds per configuration");
  dmra_bench::add_jobs_flag(cli);
  dmra_bench::add_obs_flags(cli);
  dmra_bench::add_fault_flags(cli);
  std::string error;
  if (!cli.parse(argc, argv, &error)) {
    std::cerr << error << "\n" << cli.help_text(argv[0]);
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.help_text(argv[0]);
    return 0;
  }
  const std::size_t horizon = cli.get_count("horizon");
  const auto seeds = dmra::default_seeds(cli.get_count("seeds"));
  dmra_bench::ObsSession obs_session(cli, argv[0]);
  const std::size_t jobs = dmra_bench::jobs_from(cli);
  obs_session.describe_scenario(dmra_bench::paper_config());
  obs_session.describe_run(seeds, jobs);
  const auto faults = dmra_bench::faults_from(cli);

  const dmra::DmraAllocator dmra_algo;
  const dmra::DcspAllocator dcsp;
  const dmra::NonCoAllocator nonco;
  const std::vector<const dmra::Allocator*> schemes = {&dmra_algo, &dcsp, &nonco};

  std::cout << "== A6: online arrival-rate sweep (churn engine, steady-state prefill, "
               "state after "
            << horizon << " more events) ==\n\n";
  dmra::Table table({"rate (UE/s)", "algorithm", "profit", "served", "cloud",
                     "admitted to BS", "gap to DMRA resolve"});
  struct SeedValues {
    double profit, served, cloud, admit_share, gap;
  };
  for (const double rate : cli.get_double_list("rates")) {
    for (const dmra::Allocator* scheme : schemes) {
      // The timeline is a pure function of (config, seed): every scheme
      // serves identical arrivals.
      const auto per_seed = dmra::obs::traced_parallel_map(jobs, seeds.size(), [&](std::size_t si) {
        dmra::ChurnConfig cfg;
        cfg.arrival_rate_hz = rate;
        cfg.mean_dwell_s = 40.0;
        cfg.prefill = cfg.steady_state_target();
        cfg.horizon_events = cfg.prefill + horizon;
        cfg.resolve_every = horizon / 4 + 1;
        cfg.faults = faults;
        cfg.seed = seeds[si];
        const dmra::ChurnStats s = dmra::run_churn(cfg, scheme).stats;
        const double admitted = static_cast<double>(s.admitted_to_bs + s.admitted_to_cloud);
        return SeedValues{s.final_profit, static_cast<double>(s.final_served),
                          static_cast<double>(s.final_cloud),
                          admitted > 0.0 ? static_cast<double>(s.admitted_to_bs) / admitted : 0.0,
                          s.resolve_gap_last};
      });
      dmra::RunningStats profit, served, cloud, admit_share, gap;
      for (const SeedValues& v : per_seed) {  // seed order: jobs-invariant
        profit.add(v.profit);
        served.add(v.served);
        cloud.add(v.cloud);
        admit_share.add(v.admit_share);
        gap.add(v.gap);
      }
      table.add_row({dmra::fmt(rate, 0), scheme->name(), dmra::fmt(profit.mean()),
                     dmra::fmt(served.mean(), 0), dmra::fmt(cloud.mean(), 0),
                     dmra::fmt(admit_share.mean(), 3), dmra::fmt(gap.mean(), 3)});
    }
  }
  std::cout << table.to_aligned()
            << "\nreading: every scheme serves the same arrivals through the same engine;\n"
               "the gap column is how far each live allocation sits below a from-scratch\n"
               "DMRA resolve of the same population. Overload (rate x 40 s above the edge\n"
               "capacity) shows up as cloud-forwarded UEs.\n";
  return 0;
}
