// scenario_lab: run, inspect, and lint the scenario library.
//
//   scenario_lab --list                      names + one-line descriptions
//   scenario_lab --dump <name>               canonical .scn text of a spec
//   scenario_lab --check <file.scn> [...]    parse + round-trip every file
//   scenario_lab run <name|file.scn> [--smoke] [--workers N] [--tld N]
//                [--out DIR]                 full SLO pipeline on a scenario
//
// `run` applies the spec to a campaign, executes the streaming SLO monitor,
// writes slo.jsonl / incidents.jsonl into DIR (default "<name>-run"), and
// prints every detected incident with its attributed cause. The exports are
// byte-identical for any --workers value.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "measure/campaign.h"
#include "scenario/apply.h"
#include "scenario/library.h"
#include "scenario/parser.h"

using namespace rootsim;

namespace {

int list_scenarios() {
  for (const auto& spec : scenario::library())
    std::printf("%-18s %s\n", spec.name.c_str(), spec.description.c_str());
  return 0;
}

int dump_scenario(const std::string& name) {
  scenario::ScenarioSpec spec;
  if (!scenario::find_scenario(name, &spec)) {
    std::fprintf(stderr, "scenario_lab: unknown scenario '%s' (try --list)\n",
                 name.c_str());
    return 1;
  }
  std::fputs(scenario::serialize_scenario(spec).c_str(), stdout);
  return 0;
}

int check_files(int argc, char** argv, int first) {
  int failures = 0;
  for (int i = first; i < argc; ++i) {
    std::ifstream in(argv[i]);
    if (!in) {
      std::fprintf(stderr, "%s: cannot read\n", argv[i]);
      ++failures;
      continue;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    scenario::ScenarioSpec spec;
    std::string error;
    if (!scenario::parse_scenario(buffer.str(), &spec, &error)) {
      std::fprintf(stderr, "%s: %s\n", argv[i], error.c_str());
      ++failures;
      continue;
    }
    // The canonical form must survive a round trip — guarantees --dump and
    // the committed files cannot drift apart silently.
    scenario::ScenarioSpec again;
    if (!scenario::parse_scenario(scenario::serialize_scenario(spec), &again,
                                  &error) ||
        !(again == spec)) {
      std::fprintf(stderr, "%s: round-trip mismatch (%s)\n", argv[i],
                   error.c_str());
      ++failures;
      continue;
    }
    std::printf("%-40s ok  (%s, %zu events, %zu faults)\n", argv[i],
                spec.name.c_str(), spec.events.size(), spec.faults.size());
  }
  return failures == 0 ? 0 : 1;
}

int run_scenario(int argc, char** argv) {
  std::string target;
  std::string out_dir;
  bool smoke = false;
  size_t workers = 0;
  int tld_count = 60;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--smoke")) {
      smoke = true;
    } else if (!std::strcmp(argv[i], "--workers") && i + 1 < argc) {
      workers = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (!std::strcmp(argv[i], "--tld") && i + 1 < argc) {
      tld_count = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (target.empty()) {
      target = argv[i];
    } else {
      std::fprintf(stderr, "scenario_lab: unexpected argument '%s'\n", argv[i]);
      return 1;
    }
  }
  if (target.empty()) {
    std::fprintf(stderr, "scenario_lab: run needs a scenario name or file\n");
    return 1;
  }

  scenario::ScenarioSpec spec;
  if (!scenario::find_scenario(target, &spec)) {
    std::ifstream in(target);
    std::stringstream buffer;
    std::string error;
    if (!in) {
      std::fprintf(stderr,
                   "scenario_lab: '%s' is neither a library scenario nor a "
                   "readable file\n",
                   target.c_str());
      return 1;
    }
    buffer << in.rdbuf();
    if (!scenario::parse_scenario(buffer.str(), &spec, &error)) {
      std::fprintf(stderr, "%s: %s\n", target.c_str(), error.c_str());
      return 1;
    }
  }
  if (smoke) spec = scenario::smoke_variant(spec);
  if (out_dir.empty()) out_dir = spec.name + "-run";

  scenario::Applied applied = scenario::apply(spec);
  applied.campaign.zone.tld_count = tld_count;
  applied.slo.workers = workers;
  std::printf("scenario %s: %s..%s, %zu events, %zu faults\n",
              spec.name.c_str(),
              util::format_date(spec.horizon.start).c_str(),
              util::format_date(spec.horizon.end).c_str(), spec.events.size(),
              spec.faults.size());

  measure::Campaign campaign(applied.campaign);
  measure::SloTimelineResult result =
      campaign.run_slo_timeline(spec, applied.slo);

  std::filesystem::create_directories(out_dir);
  std::ofstream(std::filesystem::path(out_dir) / "slo.jsonl")
      << result.slo_jsonl;
  std::ofstream(std::filesystem::path(out_dir) / "incidents.jsonl")
      << result.incidents_jsonl;
  std::printf("%llu probes, %zu SLO windows, %zu cause hints -> %s/\n",
              static_cast<unsigned long long>(result.probes),
              result.windows.size(), result.hints.size(), out_dir.c_str());

  if (result.incidents.empty()) {
    std::printf("no incidents detected\n");
  } else {
    std::printf("%zu incidents:\n", result.incidents.size());
    for (const auto& incident : result.incidents)
      std::printf("  #%u %c.root %s %-12s %s .. %-20s cause=%s\n", incident.id,
                  'a' + incident.root, incident.v6 ? "v6" : "v4",
                  std::string(to_string(incident.metric)).c_str(),
                  util::format_datetime(incident.opened).c_str(),
                  incident.open()
                      ? "(open)"
                      : util::format_datetime(incident.closed).c_str(),
                  incident.cause.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && !std::strcmp(argv[1], "--list")) return list_scenarios();
  if (argc >= 3 && !std::strcmp(argv[1], "--dump")) return dump_scenario(argv[2]);
  if (argc >= 3 && !std::strcmp(argv[1], "--check"))
    return check_files(argc, argv, 2);
  if (argc >= 3 && !std::strcmp(argv[1], "run")) return run_scenario(argc, argv);
  std::fprintf(stderr,
               "usage: scenario_lab --list\n"
               "       scenario_lab --dump <name>\n"
               "       scenario_lab --check <file.scn> [...]\n"
               "       scenario_lab run <name|file.scn> [--smoke] "
               "[--workers N] [--tld N] [--out DIR]\n");
  return 2;
}
