#include "deploy/oracle.hpp"

#include <algorithm>
#include <iterator>

namespace sos::deploy {

namespace {
template <typename T>
void move_append(std::vector<T>& to, std::vector<T>& from) {
  if (to.empty()) {
    to.swap(from);
  } else {
    to.insert(to.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
  }
  from.clear();
}
}  // namespace

void MetricsOracle::append(MetricsOracle&& other) {
  move_append(posts_, other.posts_);
  move_append(deliveries_, other.deliveries_);
  move_append(carries_, other.carries_);
}

std::size_t MetricsOracle::subscription_count() const {
  std::size_t n = 0;
  for (const auto& [follower, pubs] : follows_) n += pubs.size();
  return n;
}

double MetricsOracle::one_hop_fraction() const {
  if (deliveries_.empty()) return 0.0;
  std::size_t one = 0;
  for (const auto& d : deliveries_)
    if (d.hops <= 1) ++one;
  return static_cast<double>(one) / static_cast<double>(deliveries_.size());
}

std::map<int, std::size_t> MetricsOracle::hop_histogram() const {
  std::map<int, std::size_t> out;
  for (const auto& d : deliveries_) ++out[d.hops];
  return out;
}

double MetricsOracle::overall_delivery_ratio() const {
  // Deliverable = for each post, the number of users following its author.
  std::map<pki::UserId, std::size_t> follower_count;
  for (const auto& [follower, pubs] : follows_)
    for (const auto& p : pubs) ++follower_count[p];
  std::size_t deliverable = 0;
  for (const auto& p : posts_) {
    auto it = follower_count.find(p.author);
    if (it != follower_count.end()) deliverable += it->second;
  }
  if (deliverable == 0) return 0.0;
  return static_cast<double>(deliveries_.size()) / static_cast<double>(deliverable);
}

std::size_t MetricsOracle::delivered_of_posted() const {
  std::set<bundle::BundleId> posted;
  for (const auto& p : posts_) posted.insert(p.id);
  std::size_t n = 0;
  for (const auto& d : deliveries_)
    if (posted.count(d.id) > 0) ++n;
  return n;
}

double MetricsOracle::posted_delivery_ratio() const {
  std::map<pki::UserId, std::size_t> follower_count;
  for (const auto& [follower, pubs] : follows_)
    for (const auto& p : pubs) ++follower_count[p];
  std::size_t deliverable = 0;
  for (const auto& p : posts_) {
    auto it = follower_count.find(p.author);
    if (it != follower_count.end()) deliverable += it->second;
  }
  if (deliverable == 0) return 0.0;
  return static_cast<double>(delivered_of_posted()) / static_cast<double>(deliverable);
}

util::Cdf MetricsOracle::delay_cdf(bool one_hop_only) const {
  std::map<bundle::BundleId, util::SimTime> created;
  for (const auto& p : posts_) created[p.id] = p.created;
  util::Cdf cdf;
  for (const auto& d : deliveries_) {
    if (one_hop_only && d.hops > 1) continue;
    auto it = created.find(d.id);
    if (it == created.end()) continue;
    cdf.add(d.at - it->second);
  }
  return cdf;
}

util::Cdf MetricsOracle::subscription_ratio_cdf(bool one_hop_only) const {
  // posts per author
  std::map<pki::UserId, std::size_t> authored;
  for (const auto& p : posts_) ++authored[p.author];
  // deliveries per (subscriber, author)
  std::map<std::pair<pki::UserId, pki::UserId>, std::size_t> delivered;
  for (const auto& d : deliveries_) {
    if (one_hop_only && d.hops > 1) continue;
    ++delivered[{d.subscriber, d.id.origin}];
  }
  util::Cdf cdf;
  for (const auto& [follower, pubs] : follows_) {
    for (const auto& pub : pubs) {
      auto it = authored.find(pub);
      if (it == authored.end() || it->second == 0) continue;  // nothing to deliver
      auto dt = delivered.find({follower, pub});
      std::size_t got = dt == delivered.end() ? 0 : dt->second;
      cdf.add(static_cast<double>(got) / static_cast<double>(it->second));
    }
  }
  return cdf;
}

util::Histogram2d MetricsOracle::creation_map(double w, double h, std::size_t nx,
                                              std::size_t ny) const {
  util::Histogram2d map(0, 0, w, h, nx, ny);
  for (const auto& p : posts_) map.add(p.location.x, p.location.y);
  return map;
}

util::Histogram2d MetricsOracle::dissemination_map(double w, double h, std::size_t nx,
                                                   std::size_t ny) const {
  util::Histogram2d map(0, 0, w, h, nx, ny);
  for (const auto& c : carries_) map.add(c.location.x, c.location.y);
  return map;
}

}  // namespace sos::deploy
