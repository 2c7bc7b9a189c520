// The one result comparison of the determinism pins (mono vs strands, job
// counts, checkpoint/resume, run_scenario vs record→replay): two runs agree
// when the contact count, every network counter, every NodeStats counter and
// every oracle post/carry/delivery record agree. Counters are walked through
// their field tables, so a counter added to a table is pinned everywhere.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "deploy/scenario.hpp"

namespace sos::test {

/// Records compare as sorted lists: the strand engine merges per-task
/// records in task order, the mono engine in event order, so only the
/// multiset is pinned. Sorting by time first reports the earliest
/// divergence.
template <class Key>
void expect_same_records(std::vector<Key> a, std::vector<Key> b, const std::string& what,
                         const char* kind) {
  EXPECT_EQ(a.size(), b.size()) << what << ": " << kind << " count";
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  EXPECT_TRUE(ia == a.end() && ib == b.end())
      << what << ": " << kind << " record " << (ia - a.begin()) << " (in time order) differs";
}

inline void expect_same_result(const deploy::ScenarioResult& a, const deploy::ScenarioResult& b,
                               const std::string& what) {
  EXPECT_EQ(a.contacts, b.contacts) << what << ": contacts";
  for (const deploy::NetworkField& f : deploy::kNetworkFields) {
    EXPECT_EQ(a.*f.member, b.*f.member) << what << ": " << f.name;
  }
  for (const mw::StatsField& f : mw::kNodeStatsFields) {
    EXPECT_EQ(a.totals.*f.member, b.totals.*f.member) << what << ": totals." << f.name;
  }

  auto posts = [](const deploy::MetricsOracle& o) {
    std::vector<std::tuple<double, bundle::BundleId, pki::UserId>> keys;
    for (const deploy::PostRecord& r : o.posts()) keys.emplace_back(r.created, r.id, r.author);
    return keys;
  };
  auto carries = [](const deploy::MetricsOracle& o) {
    std::vector<std::tuple<double, bundle::BundleId, pki::UserId>> keys;
    for (const deploy::CarryRecord& r : o.carries()) keys.emplace_back(r.at, r.id, r.carrier);
    return keys;
  };
  auto deliveries = [](const deploy::MetricsOracle& o) {
    std::vector<std::tuple<double, bundle::BundleId, pki::UserId, int>> keys;
    for (const deploy::DeliveryRecord& r : o.deliveries())
      keys.emplace_back(r.at, r.id, r.subscriber, r.hops);
    return keys;
  };
  expect_same_records(posts(a.oracle), posts(b.oracle), what, "post");
  expect_same_records(carries(a.oracle), carries(b.oracle), what, "carry");
  expect_same_records(deliveries(a.oracle), deliveries(b.oracle), what, "delivery");
}

}  // namespace sos::test
