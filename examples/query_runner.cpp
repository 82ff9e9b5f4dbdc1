// query_runner: run an arbitrary tree join-aggregate query from files.
//
// Usage:
//   example_query_runner [flags] <spec-file>
//   example_query_runner [flags] --demo[=<dir>]   (write + run a sample)
//
// Flags: the resilience and observability flags shared with parjoind
// (serve/flags.h), plus
//   --json                       also dump the plan as JSON
//   --fit-calibration=<file>     after the run, fit the (updated) profile
//                                store into a calibration file (needs
//                                --profile)
//
// The spec grammar lives in serve/spec.h (shared with parjoind); this
// binary accepts CSV-path edge sources only — @name references need a
// parjoind registry. Relations are CSVs of "v1,v2,annotation" rows
// (counting semiring). The runner plans the query with the cost-based
// planner, executes the chosen algorithm via plan::PlanAndRun, prints the
// plan with predicted vs. measured load (and the recovery report when
// resilience is on), and writes the aggregated result. Malformed specs
// and CSVs exit 1 with the offending line; malformed flags exit 2 with
// usage — never a silent default, never an abort.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "parjoin/common/status.h"
#include "parjoin/obs/profile.h"
#include "parjoin/obs/trace.h"
#include "parjoin/plan/executor.h"
#include "parjoin/relation/io.h"
#include "parjoin/semiring/semirings.h"
#include "parjoin/serve/flags.h"
#include "parjoin/serve/spec.h"

namespace {

using S = parjoin::CountingSemiring;

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [--json] "
            << parjoin::serve::kSharedFlagsUsage
            << " [--fit-calibration=<file>] <spec-file> | --demo[=<dir>]\n";
  return 2;
}

// What main() parsed; passed through to RunSpec unchanged.
struct Flags {
  bool dump_json = false;
  parjoin::plan::ExecutionOptions exec;
  parjoin::serve::ObsFiles files;
  std::string fit_calibration;
};

int RunSpec(const parjoin::serve::QuerySpec& spec, const Flags& flags) {
  std::vector<parjoin::QueryEdge> edges;
  for (const auto& e : spec.edges) edges.push_back({e.u, e.v});
  auto query = parjoin::JoinTree::Create(edges, spec.outputs);
  if (!query.ok()) {
    std::cerr << "error: invalid query: " << query.status() << "\n";
    return 1;
  }

  parjoin::mpc::Cluster cluster(spec.p);
  parjoin::TreeInstance<S> instance{std::move(query).value(), {}};
  for (const auto& e : spec.edges) {
    auto rel =
        parjoin::LoadRelationCsv<S>(e.source, parjoin::Schema{e.u, e.v});
    if (!rel.ok()) {
      std::cerr << "error: " << rel.status() << "\n";
      return 1;
    }
    std::cout << "  loaded " << e.source << ": " << rel->size()
              << " tuples\n";
    instance.relations.push_back(
        parjoin::Distribute(cluster, std::move(rel).value()));
  }
  if (const parjoin::Status valid = instance.ValidateStatus(); !valid.ok()) {
    std::cerr << "error: " << valid << "\n";
    return 1;
  }

  const parjoin::serve::ObsFiles& files = flags.files;
  parjoin::plan::ExecutionOptions exec_options = flags.exec;
  parjoin::plan::PlannerOptions planner_options;
  parjoin::plan::CalibrationTable calibration;
  if (!files.calibration.empty()) {
    auto loaded = parjoin::obs::LoadCalibrationFile(files.calibration);
    if (!loaded.ok()) {
      std::cerr << "error: " << loaded.status() << "\n";
      return 1;
    }
    calibration = std::move(loaded).value();
    planner_options.calibration = &calibration;
    std::cout << "  calibration: " << calibration.entries().size()
              << " factor(s) from " << files.calibration << "\n";
  }
  parjoin::obs::ProfileStore profile;
  if (!files.profile.empty()) {
    auto loaded = parjoin::obs::ProfileStore::LoadOrEmpty(files.profile);
    if (!loaded.ok()) {
      std::cerr << "error: " << loaded.status() << "\n";
      return 1;
    }
    profile = std::move(loaded).value();
    exec_options.profile = &profile;
  }
  parjoin::obs::TraceRecorder trace("query_runner");
  if (!files.trace_out.empty()) {
    trace.Annotate("p", std::to_string(spec.p));
    cluster.SetObserver(&trace);
  }

  auto exec = parjoin::plan::PlanAndRun(cluster, std::move(instance),
                                        planner_options, exec_options);
  std::cout << "\n" << exec.plan.ToText() << "\n";
  if (flags.dump_json) std::cout << exec.plan.ToJson() << "\n\n";
  parjoin::Relation<S> local = exec.result.ToLocal();
  local.Normalize();

  const std::string result_path =
      spec.result_path.empty() ? "result.csv" : spec.result_path;
  if (const parjoin::Status saved =
          parjoin::SaveRelationCsv(result_path, local);
      !saved.ok()) {
    std::cerr << "error: " << saved << "\n";
    return 1;
  }
  const auto& xs = exec.plan.execution_stats;
  std::cout << "Result: " << local.size() << " tuples -> " << result_path
            << "\n"
            << parjoin::plan::PredictedVsMeasuredReport(exec.plan) << "\n"
            << "Cost: planning load " << exec.plan.planning_stats.max_load
            << " (" << exec.plan.planning_stats.rounds << " rounds), "
            << "execution load " << xs.max_load << " (" << xs.rounds
            << " rounds), " << xs.total_comm
            << " tuples moved, critical path " << xs.critical_path
            << " (p = " << spec.p << ")\n";
  // The per-event trail is already in ToText()'s "recovery:" block.
  if (xs.recovery_comm > 0 || exec.plan.recovery.attempts > 1) {
    const auto& rec = exec.plan.recovery;
    std::cout << "Recovery: " << rec.attempts << " attempt(s), "
              << xs.crashes << " crash(es), " << xs.retransmits
              << " retransmit(s), " << xs.recovery_comm
              << " recovery tuples"
              << (rec.degraded_to_baseline ? ", degraded to baseline" : "")
              << "\n";
  }
  if (!files.trace_out.empty()) {
    if (const parjoin::Status saved = trace.WriteFile(files.trace_out);
        !saved.ok()) {
      std::cerr << "error: " << saved << "\n";
      return 1;
    }
    std::cout << "Trace: " << trace.rounds().size() << " round(s), "
              << trace.events().size() << " event(s) -> " << files.trace_out
              << "\n";
  }
  if (!files.profile.empty()) {
    if (const parjoin::Status saved = profile.SaveFile(files.profile);
        !saved.ok()) {
      std::cerr << "error: " << saved << "\n";
      return 1;
    }
    std::cout << "Profile: " << profile.cells().size() << " cell(s), "
              << profile.total_runs() << " run(s) -> " << files.profile
              << "\n";
  }
  if (!flags.fit_calibration.empty()) {
    const parjoin::plan::CalibrationTable fitted =
        parjoin::obs::FitCalibration(profile);
    if (const parjoin::Status saved =
            parjoin::obs::SaveCalibrationFile(fitted, flags.fit_calibration);
        !saved.ok()) {
      std::cerr << "error: " << saved << "\n";
      return 1;
    }
    std::cout << "Calibration: " << fitted.entries().size()
              << " factor(s) -> " << flags.fit_calibration << "\n";
  }
  return 0;
}

int WriteDemoAndRun(const std::string& dir, const Flags& flags) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::cerr << "error: cannot create demo directory " << dir << ": "
              << ec.message() << "\n";
    return 1;
  }
  // A 3-chain: suppliers -> parts -> regions.
  {
    std::ofstream r1(dir + "/supplies.csv");
    for (int s = 0; s < 40; ++s) {
      for (int part = s % 5; part < 20; part += 5) {
        r1 << s << "," << part << ",1\n";
      }
    }
    std::ofstream r2(dir + "/ships_to.csv");
    for (int part = 0; part < 20; ++part) {
      for (int region = part % 3; region < 9; region += 3) {
        r2 << part << "," << region << "," << (1 + part % 4) << "\n";
      }
    }
  }
  {
    std::ofstream spec(dir + "/query.spec");
    spec << "# how many supply routes connect each (supplier, region)?\n"
         << "p 8\n"
         << "edge 0 1 " << dir << "/supplies.csv\n"
         << "edge 1 2 " << dir << "/ships_to.csv\n"
         << "output 0 2\n"
         << "result " << dir << "/routes.csv\n";
  }
  auto spec = parjoin::serve::ParseQuerySpecFile(dir + "/query.spec");
  if (!spec.ok()) {
    std::cerr << "error: " << spec.status() << "\n";
    return 1;
  }
  std::cout << "Demo spec written to " << dir << "/query.spec\n\n";
  return RunSpec(*spec, flags);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  auto rest = parjoin::serve::ParseSharedFlags({argv + 1, argv + argc},
                                               &flags.exec, &flags.files);
  if (!rest.ok()) {
    std::cerr << "error: " << rest.status() << "\n";
    return Usage(argv[0]);
  }
  bool demo = false;
  std::string demo_dir = "/tmp/parjoin_demo";
  std::vector<std::string> args;
  for (const std::string& arg : *rest) {
    std::string value;
    if (arg == "--json") {
      flags.dump_json = true;
    } else if (arg == "--demo") {
      demo = true;
    } else if (parjoin::serve::MatchFlag(arg, "demo", &value)) {
      demo = true;
      demo_dir = value;
    } else if (parjoin::serve::MatchFlag(arg, "fit-calibration", &value)) {
      if (value.empty()) {
        std::cerr << "error: --fit-calibration needs a file path\n";
        return Usage(argv[0]);
      }
      flags.fit_calibration = value;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "error: unknown flag " << arg << "\n";
      return Usage(argv[0]);
    } else {
      args.push_back(arg);
    }
  }
  if (!flags.fit_calibration.empty() && flags.files.profile.empty()) {
    std::cerr << "error: --fit-calibration needs --profile\n";
    return Usage(argv[0]);
  }
  if (demo) {
    if (!args.empty()) {
      std::cerr << "error: --demo takes no spec file\n";
      return Usage(argv[0]);
    }
    return WriteDemoAndRun(demo_dir, flags);
  }
  if (args.size() != 1) {
    return Usage(argv[0]);
  }
  auto spec = parjoin::serve::ParseQuerySpecFile(args[0]);
  if (!spec.ok()) {
    std::cerr << "error: " << spec.status() << "\n";
    return 1;
  }
  for (const auto& e : spec->edges) {
    if (e.IsRef()) {
      std::cerr << "error: edge source '" << e.source
                << "' is a relation reference; @name sources need the "
                   "parjoind registry\n";
      return 1;
    }
  }
  return RunSpec(*spec, flags);
}
