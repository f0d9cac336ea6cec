// MaxMinAllocator: the incremental drive mode must be bit-identical to
// the stateless full rebuild under arbitrary churn, also when finished
// ids are reused the way the fleet reuses FlowTable rows and on a fabric
// where no link carries every flow, and the fill must never leave a
// stale rate behind (the frozen-short bug).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "vsim/topology.h"

namespace strato::vsim {
namespace {

// Six racks of four hosts: NIC and rack rounds come first, and then the
// spine, which carries every flow, often ends the fill in a last round.
// (On two racks the rack uplinks cap the total below the spine, which
// then never saturates.)
Topology small_fabric() {
  Topology::FleetShape shape;
  shape.racks = 6;
  shape.hosts_per_rack = 4;
  return Topology::rack_spine_wan(shape);
}

// Two racks of three hosts and no spine: host h's paths are [nic, rack]
// and [nic, rack, its rack's egress], so no link lies on every path and a
// fill ends in a last round only when every live flow shares one link.
Topology two_racks() {
  Topology t;
  std::vector<Topology::LinkId> nic;
  for (int h = 0; h < 6; ++h) {
    nic.push_back(
        t.add_link({"host" + std::to_string(h) + ".nic", 117e6, {}}));
  }
  const Topology::LinkId rack[2] = {t.add_link({"rack0.up", 2 * 117e6, {}}),
                                    t.add_link({"rack1.up", 2 * 117e6, {}})};
  const Topology::LinkId egress[2] = {
      t.add_link({"rack0.egress", 1.5 * 117e6, {}}),
      t.add_link({"rack1.egress", 1.5 * 117e6, {}})};
  for (int h = 0; h < 6; ++h) {
    t.add_path({nic[h], rack[h / 3]});
    t.add_path({nic[h], rack[h / 3], egress[h / 3]});
  }
  return t;
}

// Mirrors the engine's bookkeeping for one flow in both drive modes.
struct Churn {
  explicit Churn(Topology fabric = small_fabric()) : topo(std::move(fabric)) {}

  Topology topo;
  MaxMinAllocator full{topo};
  MaxMinAllocator inc{topo};
  std::vector<std::uint32_t> path;
  std::vector<double> weight;
  std::vector<std::uint32_t> active;  // full-mode list, admission order
  std::vector<double> rate_full;
  std::vector<double> rate_inc;
  // Id reuse, the fleet's FlowTable rule: a finished id waits in
  // `retired` until the next epoch() has refolded its links, then admit
  // takes it from `free_ids` before appending a new one.
  bool reuse_ids = false;
  std::vector<std::uint32_t> retired;
  std::vector<std::uint32_t> free_ids;
  std::size_t reused = 0;

  std::uint32_t admit(std::uint32_t path_id, double w) {
    std::uint32_t f;
    if (!free_ids.empty()) {
      f = free_ids.back();
      free_ids.pop_back();
      path[f] = path_id;
      weight[f] = w;
      rate_full[f] = 0.0;
      rate_inc[f] = 0.0;
      ++reused;
    } else {
      f = static_cast<std::uint32_t>(path.size());
      path.push_back(path_id);
      weight.push_back(w);
      rate_full.push_back(0.0);
      rate_inc.push_back(0.0);
    }
    active.push_back(f);
    inc.add_flow(f, path_id);
    return f;
  }

  void finish(std::size_t active_idx) {
    const std::uint32_t f = active[active_idx];
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(active_idx));
    inc.remove_flow(f, path[f]);
    if (reuse_ids) retired.push_back(f);
  }

  void reweight(std::uint32_t f, double w) {
    weight[f] = w;
    inc.invalidate_weights();
  }

  // Runs both modes and asserts bit-identical rates for every live flow.
  void epoch(const std::vector<double>& caps, bool caps_changed) {
    full.allocate(caps, path, weight, active, rate_full);
    inc.allocate_incremental(caps, caps_changed, path, weight, rate_inc);
    free_ids.insert(free_ids.end(), retired.begin(), retired.end());
    retired.clear();
    ASSERT_EQ(active.size(), inc.live_flows());
    for (const std::uint32_t f : active) {
      ASSERT_EQ(rate_inc[f], rate_full[f]) << "flow " << f;
    }
  }
};

// ---------------------------------------------------------------------------
// Property: randomized admit/finish/reweight churn with intermittent
// capacity changes. Every epoch the incremental allocator must produce
// the exact doubles of the full rebuild — including epochs where it
// skips the fill entirely and serves last epoch's rates.
// ---------------------------------------------------------------------------

TEST(MaxMinIncremental, MatchesFullRebuildUnderChurn) {
  Churn c;
  common::Xoshiro256 rng(0xA110C8ED);
  std::vector<double> caps(c.topo.link_count());
  for (std::size_t l = 0; l < caps.size(); ++l) {
    caps[l] = c.topo.link(static_cast<Topology::LinkId>(l)).capacity_bytes_s;
  }

  const auto pick_path = [&] {
    const auto h = static_cast<std::size_t>(
        rng() % c.topo.host_count());
    return (rng() & 1u) ? c.topo.wan_path(h) : c.topo.intra_path(h);
  };

  // Warm start so removals have something to bite on.
  for (int i = 0; i < 32; ++i) {
    c.admit(pick_path(), 0.25 + 0.25 * static_cast<double>(rng() % 8));
  }

  int skipped_epochs = 0;
  for (int e = 0; e < 250; ++e) {
    // Admissions (bursty: 0..3 per epoch).
    const std::uint64_t n_admit = rng() % 4;
    for (std::uint64_t i = 0; i < n_admit; ++i) {
      c.admit(pick_path(), 0.25 + 0.25 * static_cast<double>(rng() % 8));
    }
    // Finishes.
    const std::uint64_t n_fin = rng() % 3;
    for (std::uint64_t i = 0; i < n_fin && c.active.size() > 4; ++i) {
      c.finish(static_cast<std::size_t>(rng() % c.active.size()));
    }
    // Occasional tenant-style reweight of a random live flow.
    if (rng() % 5 == 0 && !c.active.empty()) {
      const std::uint32_t f = c.active[static_cast<std::size_t>(
          rng() % c.active.size())];
      c.reweight(f, 0.25 + 0.25 * static_cast<double>(rng() % 8));
    }
    // Capacity wobble on every third epoch; the others pass
    // caps_changed = false so quiet epochs exercise the skip path.
    bool caps_changed = false;
    if (e % 3 == 0) {
      const std::size_t l = static_cast<std::size_t>(rng() % caps.size());
      caps[l] = c.topo.link(static_cast<Topology::LinkId>(l))
                    .capacity_bytes_s *
                (0.7 + 0.01 * static_cast<double>(rng() % 60));
      caps_changed = true;
    } else if (n_admit == 0 && n_fin == 0) {
      ++skipped_epochs;
    }
    c.epoch(caps, caps_changed);
  }
  // The churn schedule must actually have produced quiet epochs, or the
  // skip path went untested, and fills that end in a last round.
  EXPECT_GT(skipped_epochs, 5);
  EXPECT_GT(c.inc.work().last_rounds, 0u);
}

// The same churn property with ids reused: finished ids return to a
// free list only after the next epoch(), whose refold compacted their
// tombstones. Reusing one sooner revives its tombstone, the link counts
// the flow twice, and the rates leave the full rebuild's.
TEST(MaxMinIncremental, ReusedIdsMatchFullRebuild) {
  Churn c;
  c.reuse_ids = true;
  common::Xoshiro256 rng(0x5EC7C1ED);
  std::vector<double> caps(c.topo.link_count());
  for (std::size_t l = 0; l < caps.size(); ++l) {
    caps[l] = c.topo.link(static_cast<Topology::LinkId>(l)).capacity_bytes_s;
  }
  const auto pick_path = [&] {
    const auto h = static_cast<std::size_t>(rng() % c.topo.host_count());
    return (rng() & 1u) ? c.topo.wan_path(h) : c.topo.intra_path(h);
  };
  const auto pick_weight = [&] {
    return 0.25 + 0.25 * static_cast<double>(rng() % 8);
  };

  for (int i = 0; i < 32; ++i) c.admit(pick_path(), pick_weight());
  for (int e = 0; e < 250; ++e) {
    // Finishes before admissions: an id recycled at once is then re-added
    // ahead of the refold, as a fleet admission would be in the epoch
    // after the finish.
    const std::uint64_t n_fin = rng() % 4;
    for (std::uint64_t i = 0; i < n_fin && c.active.size() > 4; ++i) {
      c.finish(static_cast<std::size_t>(rng() % c.active.size()));
    }
    const std::uint64_t n_admit = rng() % 4;
    for (std::uint64_t i = 0; i < n_admit; ++i) {
      c.admit(pick_path(), pick_weight());
    }
    if (rng() % 5 == 0 && !c.active.empty()) {
      c.reweight(c.active[static_cast<std::size_t>(rng() % c.active.size())],
                 pick_weight());
    }
    bool caps_changed = false;
    if (e % 3 == 0) {
      const std::size_t l = static_cast<std::size_t>(rng() % caps.size());
      caps[l] = c.topo.link(static_cast<Topology::LinkId>(l))
                    .capacity_bytes_s *
                (0.7 + 0.01 * static_cast<double>(rng() % 60));
      caps_changed = true;
    }
    c.epoch(caps, caps_changed);
    if (HasFatalFailure()) return;
  }
  // Most admissions took a reused id, and some fills ended in a last
  // round.
  EXPECT_GT(c.reused, 200u) << c.path.size() << " ids";
  EXPECT_GT(c.inc.work().last_rounds, 0u);
}

// Churn on two_racks(), with and without id reuse. The population stays
// small, so now and then every live flow sits in one rack and the fill
// ends in a last round; most rounds take the full path walk. A last-round
// test that fires whenever a link carries as many flows as are still
// unfrozen leaves the other rack's flows with stale rates here.
void two_rack_churn(bool reuse_ids, std::uint64_t seed) {
  Churn c(two_racks());
  c.reuse_ids = reuse_ids;
  common::Xoshiro256 rng(seed);
  std::vector<double> caps(c.topo.link_count());
  for (std::size_t l = 0; l < caps.size(); ++l) {
    caps[l] = c.topo.link(static_cast<Topology::LinkId>(l)).capacity_bytes_s;
  }
  const auto pick_path = [&] {
    return static_cast<Topology::PathId>(rng() % c.topo.path_count());
  };
  const auto pick_weight = [&] {
    return 0.25 + 0.25 * static_cast<double>(rng() % 8);
  };

  for (int i = 0; i < 4; ++i) c.admit(pick_path(), pick_weight());
  for (int e = 0; e < 400; ++e) {
    const std::uint64_t n_fin = rng() % 3;
    for (std::uint64_t i = 0; i < n_fin && c.active.size() > 1; ++i) {
      c.finish(static_cast<std::size_t>(rng() % c.active.size()));
    }
    const std::uint64_t n_admit = rng() % 3;
    for (std::uint64_t i = 0; i < n_admit && c.active.size() < 12; ++i) {
      c.admit(pick_path(), pick_weight());
    }
    if (rng() % 5 == 0) {
      c.reweight(c.active[static_cast<std::size_t>(rng() % c.active.size())],
                 pick_weight());
    }
    bool caps_changed = false;
    if (e % 3 == 0) {
      const std::size_t l = static_cast<std::size_t>(rng() % caps.size());
      caps[l] = c.topo.link(static_cast<Topology::LinkId>(l))
                    .capacity_bytes_s *
                (0.7 + 0.01 * static_cast<double>(rng() % 60));
      caps_changed = true;
    }
    c.epoch(caps, caps_changed);
    if (::testing::Test::HasFatalFailure()) return;
  }
  const AllocatorWork& w = c.inc.work();
  EXPECT_GT(w.last_rounds, 10u);
  EXPECT_GT(w.rounds, 3 * w.last_rounds);
  if (reuse_ids) {
    EXPECT_GT(c.reused, 200u) << c.path.size() << " ids";
  }
}

TEST(MaxMinIncremental, NoCommonLinkMatchesFullRebuildUnderChurn) {
  two_rack_churn(false, 0x7A0BACC5);
}

TEST(MaxMinIncremental, NoCommonLinkReusedIdsMatchFullRebuild) {
  two_rack_churn(true, 0x7A0BACC6);
}

// A path that crosses one link twice, or names a link that does not
// exist, is refused: the allocator indexes per-link state by the ids and
// reads a link's member count as the number of flows on it.
TEST(TopologyPaths, RepeatedOrUnknownLinkIsRefused) {
  Topology t;
  const auto a = t.add_link({"a", 1e6, {}});
  const auto b = t.add_link({"b", 1e6, {}});
  EXPECT_THROW(t.add_path({a, b, a}), std::invalid_argument);
  EXPECT_THROW(t.add_path({a, b + 1}), std::invalid_argument);
  EXPECT_EQ(t.path_count(), 0u);
  EXPECT_EQ(t.add_path({a, b}), 0u);
}

// A no-change epoch must skip the fill (return false) and still serve
// rates equal to the full rebuild's.
TEST(MaxMinIncremental, QuietEpochSkipsFillAndKeepsRates) {
  Churn c;
  std::vector<double> caps(c.topo.link_count(), 100e6);
  c.admit(c.topo.wan_path(0), 1.0);
  c.admit(c.topo.wan_path(1), 2.0);
  c.admit(c.topo.intra_path(2), 1.0);

  EXPECT_TRUE(c.inc.allocate_incremental(caps, true, c.path, c.weight,
                                         c.rate_inc));
  const std::vector<double> first = c.rate_inc;
  EXPECT_FALSE(c.inc.allocate_incremental(caps, false, c.path, c.weight,
                                          c.rate_inc));
  EXPECT_EQ(c.rate_inc, first);
  EXPECT_EQ(c.inc.work().fills, 1u);
  EXPECT_EQ(c.inc.work().fills_skipped, 1u);
  c.epoch(caps, false);  // and still bit-equal to the reference
}

// ---------------------------------------------------------------------------
// Regression: progressive filling can exit with capacity left over (all
// remaining flows on zero-weight-sum links). Flows never frozen must
// read rate 0, not whatever the column held before — in BOTH modes.
// ---------------------------------------------------------------------------

TEST(MaxMinAllocatorBug, UnfrozenFlowsReadZeroNotStaleRates) {
  Topology topo;
  const auto l0 = topo.add_link({"only", 100e6, {}});
  const auto p0 = topo.add_path({l0});

  std::vector<double> caps = {100e6};
  std::vector<std::uint32_t> path = {p0, p0};
  std::vector<double> weight = {1.0, 0.0};  // flow 1: zero weight
  std::vector<std::uint32_t> active = {0, 1};
  // Poison the columns with stale garbage from a hypothetical earlier
  // epoch where flow 1 had weight.
  std::vector<double> rate = {123.0, 456.0};

  MaxMinAllocator full(topo);
  full.allocate(caps, path, weight, active, rate);
  EXPECT_DOUBLE_EQ(rate[0], 100e6);
  EXPECT_DOUBLE_EQ(rate[1], 0.0) << "stale rate must be zeroed";

  MaxMinAllocator inc(topo);
  inc.add_flow(0, p0);
  inc.add_flow(1, p0);
  std::vector<double> rate2 = {123.0, 456.0};
  EXPECT_TRUE(inc.allocate_incremental(caps, true, path, weight, rate2));
  EXPECT_DOUBLE_EQ(rate2[0], 100e6);
  EXPECT_DOUBLE_EQ(rate2[1], 0.0) << "stale rate must be zeroed";
}

// Weight updates must take effect on the next epoch in both modes.
TEST(MaxMinIncremental, ReweightTakesEffect) {
  Churn c;
  std::vector<double> caps(c.topo.link_count(), 90e6);
  const auto a = c.admit(c.topo.intra_path(0), 1.0);
  const auto b = c.admit(c.topo.intra_path(0), 1.0);
  c.epoch(caps, true);
  EXPECT_DOUBLE_EQ(c.rate_inc[a], c.rate_inc[b]);

  c.reweight(a, 2.0);
  c.epoch(caps, false);
  EXPECT_DOUBLE_EQ(c.rate_inc[a], 2.0 * c.rate_inc[b]);
}

}  // namespace
}  // namespace strato::vsim
