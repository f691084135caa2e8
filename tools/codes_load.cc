// codes_load: deterministic open-loop overload campaign driver.
//
// Replays a seeded arrival schedule against the overload-protection front
// end (admission control, deadline queue, circuit breakers, adaptive
// brownout) wrapped around CodesPipeline::PredictGuarded, entirely in
// virtual time: a single discrete-event driver makes every control
// decision, so the campaign report, its digest, and the serve.* metrics
// snapshot are byte-identical at any --threads value.
//
// Modes (every mode checks the metric invariants declared by the serving
// layers before writing its snapshot):
//   campaign (default)  codes_load --requests=5000 --qps=400 --threads=8
//   smoke               codes_load --smoke   (fixed-seed 2x-saturation
//                                             campaign with a built-in
//                                             1-vs-8-thread determinism
//                                             check)
//   mt-smoke            codes_load --mt-smoke (fixed-seed multi-tenant
//                                             fleet campaign: hot tenant
//                                             at 5x its fair share, cold
//                                             and bursty-adversarial
//                                             tenants, LRU fleet eviction
//                                             under a memory budget,
//                                             per-tenant isolation
//                                             asserted, 1-vs-8-thread
//                                             determinism check)
//   adv-smoke           codes_load --adv --smoke (fixed-seed adversarial
//                                             campaign: 30% of questions
//                                             mutated online, hardening
//                                             front door on, goodput-
//                                             under-perturbation >= 80%
//                                             of clean asserted, 1-vs-8-
//                                             thread determinism check)
//
// --adv on a plain campaign mixes mutated questions at --adv-rate and
// turns the hardening front door on.
//
// --qps is the offered (arrival) rate; virtual capacity is
// --workers * 1e6 / --service-us, so --qps=2x capacity is a saturation
// campaign. Campaign stdout is byte-identical across thread counts
// (timing goes to stderr). Exit status: 0 clean, 1 invariant violation,
// 2 usage error.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "campaign.h"
#include "common/metrics.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
#include "fleet/fleet_manager.h"
#include "serve/load_gen.h"

namespace {

using codes::MetricsSnapshot;
using codes::serve::LoadGenOptions;
using codes::serve::LoadReport;

struct Flags {
  int requests = 2000;
  double qps = 400.0;
  int workers = 4;
  uint64_t service_us = 20'000;
  uint64_t deadline_us = 200'000;
  int threads = 2;
  uint64_t seed = 1;
  double rate = 0.0;        ///< failpoint probability at every site
  std::string spec;         ///< overrides the --rate-derived spec
  uint64_t queue = 64;
  double rate_limit = 0.0;  ///< token-bucket qps; <= 0 disables
  std::string metrics_out;  ///< JSON metrics snapshot path (optional)
  bool adv = false;         ///< adversarial traffic + hardening front door
  double adv_rate = 0.3;    ///< fraction of questions mutated when --adv
  bool smoke = false;
  bool mt_smoke = false;
  bool selfcheck = false;
};

/// A benchmark and a 7B pipeline trained on it (classifier + SFT), the
/// serving configuration codes_chaos campaigns exercise too.
struct Fixture {
  codes::Text2SqlBenchmark bench;
  codes::LmZoo zoo{1, 31};
  codes::CodesPipeline pipeline;

  static codes::PipelineConfig Config() {
    codes::PipelineConfig config;
    config.size = codes::ModelSize::k7B;
    return config;
  }
  explicit Fixture(codes::Text2SqlBenchmark b)
      : bench(std::move(b)),
        pipeline(Config(), zoo.CodesFor(Config().size)) {
    pipeline.TrainClassifier(bench);
    pipeline.FineTune(bench);
  }
};

/// One campaign on a fixture: an optional reference run over the same
/// fixture, the gated run, and the gates only this campaign asserts.
struct Campaign {
  LoadGenOptions options;
  std::optional<LoadGenOptions> reference;
  /// Extra cold-state hygiene before every run (fleet eviction).
  std::function<void()> reset;
  /// Campaign-specific gates; returns 1 on a violation.
  std::function<int(const LoadReport& report, const LoadReport& reference,
                    const MetricsSnapshot& snapshot)>
      gates;
  bool selfcheck = true;
};

/// Runs `c` on `fx` below the caller's header line. Every run starts from
/// a cold retriever cache and a zeroed registry, so the exported snapshot
/// covers exactly the gated run and the 1-thread replay's metrics are
/// comparable with it.
int Run(Fixture& fx, const Campaign& c, const std::string& metrics_out) {
  auto run = [&](const LoadGenOptions& options) {
    if (c.reset) c.reset();
    fx.pipeline.ClearRetrieverCache();
    codes::MetricsRegistry::Global().Reset();
    return codes::serve::RunLoadCampaign(fx.pipeline, fx.bench, options);
  };
  LoadReport reference = c.reference ? run(*c.reference) : LoadReport{};
  LoadReport report = run(c.options);
  MetricsSnapshot snapshot = codes::MetricsRegistry::Global().Snapshot();
  std::fputs(report.Summary().c_str(), stdout);

  // Every campaign: the exported counters saw every scheduled request,
  // and the report's own per-request outcomes partition them.
  int exit_code = 0;
  uint64_t offered = snapshot.CounterOr0("serve.offered");
  if (offered != static_cast<uint64_t>(c.options.num_requests) ||
      offered != report.offered) {
    std::printf("INVARIANT VIOLATION: serve.offered=%" PRIu64
                " != campaign offered=%" PRIu64 " (%d scheduled)\n",
                offered, report.offered, c.options.num_requests);
    exit_code = 1;
  }
  if (report.admitted + report.rejected_rate + report.rejected_queue_full +
          report.rejected_tenant_rate + report.shed_deadline +
          report.shed_drain !=
      report.offered) {
    std::printf("INVARIANT VIOLATION: per-request outcomes do not sum to "
                "offered=%" PRIu64 "\n",
                report.offered);
    exit_code = 1;
  }
  if (c.gates && c.gates(report, reference, snapshot) != 0) exit_code = 1;

  int checked = codes::campaign::CheckAndWrite(snapshot, metrics_out);
  if (checked == 2) return 2;
  exit_code = std::max(exit_code, checked);

  // The whole campaign must replay byte-identically single-threaded:
  // every control decision happens at virtual timestamps derived from the
  // seed, never from real scheduling.
  if (c.selfcheck) {
    LoadGenOptions serial = c.options;
    serial.threads = 1;
    if (codes::campaign::ReplaySelfcheck(
            c.options.threads, report.digest,
            [&] { return run(serial).digest; }, &snapshot) != 0) {
      exit_code = 1;
    }
  }
  return exit_code;
}

/// Flags into LoadGenOptions; --smoke pins the fixed 2x-saturation
/// configuration for ctest / CI gating (capacity 4 workers / 20 ms =
/// 200 qps, offered 400 qps).
int RunDefault(Flags flags) {
  if (flags.smoke) {
    flags.requests = 600;
    flags.qps = 400.0;
    flags.workers = 4;
    flags.service_us = 20'000;
    flags.deadline_us = 200'000;
    flags.threads = 8;
    flags.seed = 20240806;
    flags.rate = 0.02;
    flags.selfcheck = true;
  }
  Campaign c;
  LoadGenOptions& options = c.options;
  options.seed = flags.seed;
  options.num_requests = flags.requests;
  options.offered_qps = flags.qps;
  options.virtual_workers = flags.workers;
  options.service_base_us = flags.service_us;
  options.deadline_us = flags.deadline_us;
  options.threads = flags.threads;
  options.front_end.admission.queue_capacity = flags.queue;
  options.front_end.admission.rate_per_sec = flags.rate_limit;
  if (flags.adv) options.adv_rate = flags.adv_rate;
  if (!flags.spec.empty()) {
    options.failpoint_spec = flags.spec;
  } else if (flags.rate > 0.0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "*=prob:%g", flags.rate);
    options.failpoint_spec = buf;
  }
  c.selfcheck = flags.selfcheck;

  Fixture fx(codes::BuildTinySpiderLike(2024));
  std::printf("load campaign: requests=%d qps=%g workers=%d service_us=%"
              PRIu64 " seed=%" PRIu64 " spec=\"%s\"\n",
              flags.requests, flags.qps, flags.workers, flags.service_us,
              flags.seed, options.failpoint_spec.c_str());
  return Run(fx, c, flags.metrics_out);
}

/// The multi-tenant fleet campaign. Six tenants over six dev databases:
/// one hot tenant offered 5x its fair share, two normal tenants, two
/// near-idle cold tenants (whose rare requests force fleet attach under
/// the memory budget), and one bursty adversarial tenant. Gates:
///   - every tenant's metric family agrees with the campaign's rows, and
///     the tenant offered counters partition serve.offered,
///   - isolation: with the hot tenant at 5x fair share, every other
///     tenant keeps >= 80% of the goodput it gets when the hot tenant
///     behaves (same traffic with hot at exactly its fair share),
///   - the fleet ends under its memory budget, having evicted and
///     attached along the way.
int RunMtSmoke(const Flags& flags) {
  codes::BenchmarkConfig bench_config;
  bench_config.name = "mt_fleet";
  bench_config.profile = codes::DbProfile::Spider();
  bench_config.train_domains = 4;
  bench_config.dev_domains = 6;
  bench_config.train_samples_per_db = 15;
  bench_config.dev_samples_per_db = 8;
  bench_config.seed = 20240808;
  Fixture fx(codes::BuildBenchmark(bench_config));
  const codes::Text2SqlBenchmark& bench = fx.bench;

  // One tenant per dev database, in order of first appearance.
  std::vector<int> dev_dbs;
  for (const auto& sample : bench.dev) {
    if (std::find(dev_dbs.begin(), dev_dbs.end(), sample.db_index) ==
        dev_dbs.end()) {
      dev_dbs.push_back(sample.db_index);
    }
  }
  if (dev_dbs.size() < 6) {
    std::fprintf(stderr, "mt-smoke: expected 6 dev databases, got %zu\n",
                 dev_dbs.size());
    return 2;
  }
  static const char* kNames[6] = {"hot",   "norm1", "norm2",
                                  "cold1", "cold2", "adv"};

  // Per-process, so concurrent campaigns never delete each other's
  // snapshots mid-run.
  std::filesystem::path snapshot_dir =
      std::filesystem::temp_directory_path() /
      ("codes_load_mt_fleet." + std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::remove_all(snapshot_dir, ec);

  auto make_fleet = [&](size_t budget) {
    codes::fleet::FleetManager::Options fleet_options;
    fleet_options.memory_budget_bytes = budget;
    fleet_options.snapshot_dir = snapshot_dir.string();
    auto fleet =
        std::make_unique<codes::fleet::FleetManager>(fleet_options);
    for (int t = 0; t < 6; ++t) {
      codes::fleet::FleetManager::TenantDesc desc;
      desc.name = kNames[t];
      desc.db = &bench.databases[static_cast<size_t>(dev_dbs[t])];
      fleet->AddTenant(std::move(desc));
    }
    return fleet;
  };

  // Probe pass: build + persist every index once with no budget, to
  // price the fleet. The real fleet's budget is 55% of the total, so a
  // full working set cannot stay resident and evictions must happen.
  size_t total_bytes = 0;
  {
    auto probe = make_fleet(0);
    probe->WarmAll();
    total_bytes = probe->PeakResidentBytes();
  }
  size_t budget = total_bytes * 55 / 100;
  auto fleet = make_fleet(budget);

  // Virtual capacity: 4 workers / 20 ms = 200 qps, fair share ~33 qps
  // per tenant at equal weights.
  const double capacity_qps = 4.0 * 1e6 / 20'000.0;
  const double fair = capacity_qps / 6.0;

  Campaign c;
  LoadGenOptions& mt = c.options;
  mt.seed = 20240808;
  mt.num_requests = 900;
  mt.virtual_workers = 4;
  mt.service_base_us = 20'000;
  mt.deadline_us = 200'000;
  mt.threads = 8;
  mt.front_end.admission.queue_capacity = 64;
  mt.front_end.admission.tenant_capacity_qps = capacity_qps;
  mt.front_end.admission.tenants = fleet->AdmissionSpecs();
  mt.front_end.tenant_names = fleet->TenantNames();
  mt.burst_period_us = 500'000;
  mt.burst_duty = 0.2;
  mt.tenant_attach = [&fleet](int tenant) { return fleet->Attach(tenant); };

  // Shares are offered qps per tenant; offered_qps is their (burst-
  // averaged) sum, so each tenant's absolute arrival rate is its share
  // in both the baseline and the adversarial mix.
  auto set_shares = [&](LoadGenOptions* o, double hot_qps) {
    const double shares[6] = {hot_qps,      0.7 * fair,  0.7 * fair,
                              0.15 * fair,  0.15 * fair, 0.2 * fair};
    const double burst_shares[6] = {-1.0, -1.0, -1.0, -1.0, -1.0,
                                    2.0 * fair};
    o->tenants.clear();
    double sum = 0.0;
    for (int t = 0; t < 6; ++t) {
      codes::serve::TenantTraffic traffic;
      traffic.name = kNames[t];
      traffic.share = shares[t];
      traffic.burst_share = burst_shares[t];
      traffic.db_index = dev_dbs[t];
      o->tenants.push_back(traffic);
      sum += shares[t];
    }
    // The adversarial tenant's burst surplus, averaged over the duty
    // cycle, raises the offered rate above the base sum.
    sum += o->burst_duty * (burst_shares[5] - shares[5]);
    o->offered_qps = sum;
  };

  // Baseline: the same mix with the hot tenant at exactly its fair
  // share — the "no bully" reference for the isolation gate.
  LoadGenOptions baseline = mt;
  set_shares(&baseline, fair);
  baseline.num_requests = 420;
  set_shares(&mt, 5.0 * fair);
  c.reference = baseline;
  // Every run starts from the same fleet state: all evicted, snapshots
  // on disk.
  c.reset = [&fleet] { fleet->EvictAll(); };

  c.gates = [&](const LoadReport& report, const LoadReport& base_report,
                const MetricsSnapshot& snapshot) {
    int bad = 0;
    uint64_t offered_sum = 0;
    for (const auto& row : report.tenants) {
      std::string prefix = "serve.tenant." + row.name + ".";
      offered_sum += snapshot.CounterOr0(prefix + "offered");
      if (snapshot.CounterOr0(prefix + "offered") != row.offered ||
          snapshot.CounterOr0(prefix + "admitted") != row.admitted ||
          snapshot.CounterOr0(prefix + "rejected") != row.rejected ||
          snapshot.CounterOr0(prefix + "shed") != row.shed) {
        std::printf("INVARIANT VIOLATION: tenant %s: metric family "
                    "disagrees with campaign accounting\n",
                    row.name.c_str());
        bad = 1;
      }
    }
    if (report.tenants.size() != 6 ||
        offered_sum != snapshot.CounterOr0("serve.offered")) {
      std::printf("INVARIANT VIOLATION: %zu tenant offered counters sum to "
                  "%" PRIu64 " != serve.offered=%" PRIu64 "\n",
                  report.tenants.size(), offered_sum,
                  snapshot.CounterOr0("serve.offered"));
      bad = 1;
    }

    // Isolation: the hot tenant's 5x overload must be clipped by the
    // weighted-fair limiter, not paid for by everyone else. Compared on
    // the served-within-deadline fraction of each tenant's own arrivals —
    // goodput normalized by offered rate — so the low-rate cold tenants'
    // arrival-count noise does not masquerade as admission harm.
    auto served_fraction = [](const LoadReport::TenantRow& row) {
      return row.offered == 0
                 ? 1.0
                 : static_cast<double>(row.served_within_deadline) /
                       static_cast<double>(row.offered);
    };
    for (size_t t = 1; t < report.tenants.size(); ++t) {
      double isolated = served_fraction(base_report.tenants[t]);
      double contended = served_fraction(report.tenants[t]);
      bool ok = contended >= 0.8 * isolated;
      std::printf("isolation: tenant %s served %.0f%% of its arrivals vs "
                  "%.0f%% with the hot tenant at fair share (%.1f vs %.1f "
                  "qps goodput) %s\n",
                  report.tenants[t].name.c_str(), 100.0 * contended,
                  100.0 * isolated, report.TenantGoodputQps(t),
                  base_report.TenantGoodputQps(t), ok ? "ok" : "VIOLATION");
      if (!ok) bad = 1;
    }

    // The fleet must end under budget and must have had to evict (and
    // re-attach) to get there: the working set is priced at ~1.8x the
    // budget.
    uint64_t evictions = snapshot.CounterOr0("fleet.evict");
    uint64_t attaches = snapshot.CounterOr0("fleet.attach");
    size_t resident = fleet->ResidentBytes();
    std::printf("fleet: resident=%zu budget=%zu evictions=%" PRIu64
                " attaches=%" PRIu64 " (build=%" PRIu64 " snapshot=%" PRIu64
                ")\n",
                resident, budget, evictions, attaches,
                snapshot.CounterOr0("fleet.attach.build"),
                snapshot.CounterOr0("fleet.attach.snapshot"));
    auto exported = snapshot.gauges.find("fleet.resident_bytes");
    if (resident > budget || exported == snapshot.gauges.end() ||
        exported->second != static_cast<int64_t>(resident)) {
      std::printf("INVARIANT VIOLATION: fleet resident bytes exceed budget "
                  "or disagree with the fleet.resident_bytes gauge\n");
      bad = 1;
    }
    if (evictions == 0 || attaches == 0) {
      std::printf("INVARIANT VIOLATION: no fleet evictions or attaches "
                  "observed\n");
      bad = 1;
    }
    return bad;
  };

  std::printf("mt campaign: requests=%d qps=%.1f capacity=%.0f tenants=6 "
              "budget=%zu/%zu bytes seed=%" PRIu64 "\n",
              mt.num_requests, mt.offered_qps, capacity_qps, budget,
              total_bytes, mt.seed);
  int exit_code = Run(fx, c, flags.metrics_out);
  std::filesystem::remove_all(snapshot_dir, ec);
  return exit_code;
}

/// The adversarial serving smoke: one clean reference campaign and one
/// --adv-rate-perturbed campaign over the same arrival schedule, with the
/// hardening front door on in both. Gates:
///   - mutations flowed (adv_offered > 0) and the hardening detector
///     actually fired on them (serve.adv.suspect > 0), pre-degrading
///     every suspect it flagged (serve.adv.pre_degraded ==
///     serve.adv.suspect),
///   - verified goodput under perturbation keeps >= 80% of the clean
///     campaign's verified goodput.
int RunAdvSmoke(const Flags& flags) {
  // 2x saturation like --smoke: capacity 4 workers / 20 ms = 200 qps,
  // offered 400 qps, so the brownout ladder is live in both campaigns.
  Campaign c;
  LoadGenOptions& adv = c.options;
  adv.seed = 20240809;
  adv.num_requests = 600;
  adv.offered_qps = 400.0;
  adv.virtual_workers = 4;
  adv.service_base_us = 20'000;
  adv.deadline_us = 200'000;
  adv.threads = 8;
  adv.front_end.admission.queue_capacity = 64;
  adv.adv_rate = flags.adv_rate;

  // Clean reference: the identical schedule with zero mutations prices
  // what verified goodput costs on this fixture.
  c.reference = adv;
  c.reference->adv_rate = 0.0;

  c.gates = [&](const LoadReport& report, const LoadReport& clean_report,
                const MetricsSnapshot& snapshot) {
    int bad = 0;
    if (report.adv_offered == 0) {
      std::printf("INVARIANT VIOLATION: no requests were mutated at "
                  "adv_rate=%.2f\n",
                  adv.adv_rate);
      bad = 1;
    }
    uint64_t suspect = snapshot.CounterOr0("serve.adv.suspect");
    if (suspect == 0) {
      std::printf("INVARIANT VIOLATION: hardening flagged no request "
                  "suspect under adversarial traffic\n");
      bad = 1;
    }
    if (snapshot.CounterOr0("serve.adv.pre_degraded") != suspect) {
      std::printf("INVARIANT VIOLATION: serve.adv.pre_degraded=%" PRIu64
                  " != serve.adv.suspect=%" PRIu64 "\n",
                  snapshot.CounterOr0("serve.adv.pre_degraded"), suspect);
      bad = 1;
    }

    double clean_goodput = clean_report.VerifiedGoodputQps();
    double adv_goodput = report.VerifiedGoodputQps();
    double retention =
        clean_goodput > 0.0 ? adv_goodput / clean_goodput : 1.0;
    std::printf("goodput under perturbation: %.1f qps vs %.1f qps clean "
                "(retention %.0f%%) %s\n",
                adv_goodput, clean_goodput, 100.0 * retention,
                retention >= 0.8 ? "ok" : "VIOLATION");
    if (retention < 0.8) bad = 1;
    return bad;
  };

  Fixture fx(codes::BuildTinySpiderLike(2024));
  std::printf("adv campaign: requests=%d qps=%.1f adv_rate=%.2f seed=%"
              PRIu64 "\n",
              adv.num_requests, adv.offered_qps, adv.adv_rate, adv.seed);
  return Run(fx, c, flags.metrics_out);
}

}  // namespace

int main(int argc, char** argv) {
  using codes::campaign::AtLeast;
  using codes::campaign::Above;
  using codes::campaign::Within;
  Flags flags;
  const codes::campaign::Flag table[] = {
      {"--requests", &flags.requests, "N", AtLeast(1)},
      {"--qps", &flags.qps, "Q", Above(0)},
      {"--workers", &flags.workers, "N", AtLeast(1)},
      {"--service-us", &flags.service_us, "N", AtLeast(1)},
      {"--deadline-us", &flags.deadline_us, "N"},
      {"--threads", &flags.threads, "N", AtLeast(1)},
      {"--seed", &flags.seed, "S"},
      {"--rate", &flags.rate, "P", Within(0, 1)},
      {"--spec", &flags.spec, "SPEC"},
      {"--queue", &flags.queue, "N", AtLeast(1)},
      {"--rate-limit", &flags.rate_limit, "Q", AtLeast(0)},
      {"--metrics-out", &flags.metrics_out, "PATH"},
      {"--adv", &flags.adv},
      {"--adv-rate", &flags.adv_rate, "P", Within(0, 1)},
      {"--selfcheck", &flags.selfcheck},
      {"--smoke", &flags.smoke},
      {"--mt-smoke", &flags.mt_smoke},
  };
  codes::campaign::ParseFlags(argc, argv, "codes_load", table);

  auto start = std::chrono::steady_clock::now();
  int exit_code = flags.mt_smoke                ? RunMtSmoke(flags)
                  : flags.adv && flags.smoke ? RunAdvSmoke(flags)
                                             : RunDefault(flags);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  std::fprintf(stderr, "elapsed: %lld ms\n", static_cast<long long>(elapsed));
  return exit_code;
}
