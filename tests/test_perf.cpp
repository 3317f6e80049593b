// Sweep determinism over the production engine: 1-vs-N-thread campaign
// byte identity.
#include <gtest/gtest.h>

#include "runner/campaign.hpp"
#include "scenario/registry.hpp"

namespace gtrix {
namespace {

TEST(Perf, SweepOverNewEngineIsThreadCountInvariant) {
  // 1-vs-N-thread byte identity: the campaign JSONL (which serializes skew
  // AND counters) must not depend on worker count, so parallel sweeps stay
  // deterministic on the calendar-queue engine.
  const Scenario scenario = builtin_scenario("quickstart-grid");
  const CampaignResult one = run_campaign(scenario, CampaignOptions{.threads = 1, .recording_override = {}});
  const CampaignResult four = run_campaign(scenario, CampaignOptions{.threads = 4, .recording_override = {}});
  EXPECT_EQ(campaign_jsonl(one), campaign_jsonl(four));
}

}  // namespace
}  // namespace gtrix
