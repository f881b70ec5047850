#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "measure/campaign.h"
#include "scenario/apply.h"
#include "scenario/library.h"
#include "scenario/parser.h"
#include "util/timeutil.h"

// Where the committed .scn files live; injected by tests/CMakeLists.txt so
// the binary finds them regardless of ctest's working directory.
#ifndef ROOTSIM_SCENARIO_DIR
#define ROOTSIM_SCENARIO_DIR "../../examples/scenarios"
#endif

namespace rootsim::scenario {
namespace {

using util::make_time;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ScenarioParser, LibrarySpecsSurviveARoundTrip) {
  for (const ScenarioSpec& spec : library()) {
    ScenarioSpec again;
    std::string error;
    ASSERT_TRUE(parse_scenario(serialize_scenario(spec), &again, &error))
        << spec.name << ": " << error;
    EXPECT_TRUE(again == spec) << spec.name << ": round trip changed the spec";
  }
}

TEST(ScenarioParser, CommittedFilesMatchTheLibrary) {
  // The .scn files in examples/scenarios/ are generated with
  // `scenario_lab --dump`; this pins them to the library so neither can
  // drift without the other.
  for (const ScenarioSpec& spec : library()) {
    std::string text =
        read_file(std::string(ROOTSIM_SCENARIO_DIR) + "/" + spec.name + ".scn");
    ASSERT_FALSE(text.empty()) << spec.name;
    ScenarioSpec parsed;
    std::string error;
    ASSERT_TRUE(parse_scenario(text, &parsed, &error))
        << spec.name << ": " << error;
    EXPECT_TRUE(parsed == spec)
        << spec.name << ".scn is stale — regenerate with scenario_lab --dump";
  }
}

TEST(ScenarioParser, RejectsUnknownDirectiveWithLineNumber) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(parse_scenario("scenario x\nnot-a-directive 1\n", &spec, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(ScenarioParser, RejectsMalformedTime) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(parse_scenario(
      "scenario x\nhorizon yesterday 2023-12-24T00:00:00Z\n", &spec, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ScenarioLibrary, FindScenarioByName) {
  ScenarioSpec spec;
  EXPECT_TRUE(find_scenario("paper-2023", &spec));
  EXPECT_EQ(spec.name, "paper-2023");
  EXPECT_FALSE(find_scenario("no-such-scenario", &spec));
}

TEST(ScenarioLibrary, PaperSpecCarriesTheTimeline) {
  ScenarioSpec spec = paper_2023();
  EXPECT_EQ(spec.horizon.start, make_time(2023, 7, 3));
  EXPECT_EQ(spec.horizon.end, make_time(2023, 12, 24));
  EXPECT_EQ(renumbering_time(spec), make_time(2023, 11, 27));
  EXPECT_EQ(spec.zone.zonemd_private_start, make_time(2023, 9, 13));
  EXPECT_EQ(spec.faults.size(), 66u);  // Table 2 plan
}

TEST(ScenarioLibrary, SmokeVariantIsDeterministicAndShort) {
  for (const ScenarioSpec& spec : library()) {
    ScenarioSpec smoke = smoke_variant(spec);
    EXPECT_TRUE(smoke == smoke_variant(spec)) << spec.name;
    EXPECT_EQ(smoke.name, spec.name + "-smoke");
    EXPECT_GE(smoke.horizon.start, spec.horizon.start) << spec.name;
    EXPECT_LE(smoke.horizon.end, spec.horizon.end) << spec.name;
    EXPECT_LE(smoke.horizon.end - smoke.horizon.start,
              17 * util::kSecondsPerDay)
        << spec.name;
  }
}

// Runs a smoke variant's SLO timeline at a reduced zone scale and returns
// the result (exports + incidents).
measure::SloTimelineResult run_smoke(const ScenarioSpec& smoke,
                                     size_t workers) {
  Applied applied = apply(smoke);
  applied.campaign.zone.tld_count = 25;
  applied.campaign.zone.rsa_modulus_bits = 512;
  applied.slo.workers = workers;
  measure::Campaign campaign(applied.campaign);
  return campaign.run_slo_timeline(smoke, applied.slo);
}

TEST(ScenarioRun, ExportsCarryTheScenarioHeader) {
  ScenarioSpec smoke = smoke_variant(ddos_c_globals());
  measure::SloTimelineResult result = run_smoke(smoke, 1);
  const std::string header = "{\"scenario\":\"ddos-c-globals-smoke\"}\n";
  EXPECT_EQ(result.slo_jsonl.substr(0, header.size()), header);
  EXPECT_EQ(result.incidents_jsonl.substr(0, header.size()), header);
}

TEST(ScenarioRun, DdosIncidentClosesAndIsAttributedAtAnyWorkerCount) {
  ScenarioSpec smoke = smoke_variant(ddos_c_globals());
  // Worker matrix: byte-identical exports, and the scripted DDoS on c.root
  // must open, attribute, and close at every worker count.
  measure::SloTimelineResult reference = run_smoke(smoke, 1);
  for (size_t workers : {1u, 2u, 8u}) {
    measure::SloTimelineResult result = run_smoke(smoke, workers);
    EXPECT_EQ(result.slo_jsonl, reference.slo_jsonl) << workers << " workers";
    EXPECT_EQ(result.incidents_jsonl, reference.incidents_jsonl)
        << workers << " workers";
    bool attributed = false;
    for (const obs::Incident& incident : result.incidents) {
      if (incident.cause != "ddos-c-globals") continue;
      attributed = true;
      EXPECT_EQ(incident.root, 2u);  // c.root
      EXPECT_EQ(incident.metric, obs::SloMetric::Availability);
      EXPECT_GT(incident.closed, incident.opened);  // closed, not open
    }
    EXPECT_TRUE(attributed) << workers
                            << " workers: no incident attributed to the DDoS";
  }
}

TEST(ScenarioRun, EveryLibraryScenarioIsWorkerAndScheduleInvariant) {
  // One serial-vs-parallel pair per scenario keeps this cheap; the CI smoke
  // job runs the full 1/2/8-worker matrix through scenario_lab.
  for (const ScenarioSpec& spec : library()) {
    ScenarioSpec smoke = smoke_variant(spec);
    measure::SloTimelineResult serial = run_smoke(smoke, 1);
    measure::SloTimelineResult parallel = run_smoke(smoke, 3);
    EXPECT_EQ(serial.slo_jsonl, parallel.slo_jsonl) << spec.name;
    EXPECT_EQ(serial.incidents_jsonl, parallel.incidents_jsonl) << spec.name;
    EXPECT_GT(serial.windows.size(), 0u) << spec.name;
  }
}

}  // namespace
}  // namespace rootsim::scenario
