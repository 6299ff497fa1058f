// Fleet convergence observatory (DESIGN.md §17): VipDigest token algebra,
// the digest-carrying pool, and — through real fleets — watermark-lag SLO
// hysteresis, checkability around resync sessions and out-of-band
// provisioning, silent divergence detection with per-VIP attribution, and
// the property that every switch digest equals a data-plane recompute after
// randomized interleavings of updates, crashes, and restores.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "deploy/convergence.h"
#include "deploy/fleet.h"

namespace silkroad::deploy {
namespace {

net::Endpoint vip_ep(std::uint32_t n = 1) {
  return {net::IpAddress::v4(0x14000000 + n), 80};
}

net::Endpoint dip_ep(std::uint32_t n) {
  return {net::IpAddress::v4(0x0A000000 + n), 20};
}

std::vector<net::Endpoint> make_dips(std::uint32_t n) {
  std::vector<net::Endpoint> dips;
  for (std::uint32_t i = 0; i < n; ++i) dips.push_back(dip_ep(i));
  return dips;
}

core::SilkRoadSwitch::Config small_config() {
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(8192);
  return config;
}

workload::DipUpdate update_of(const net::Endpoint& vip,
                              const net::Endpoint& dip, bool add) {
  workload::DipUpdate update;
  update.vip = vip;
  update.dip = dip;
  update.action = add ? workload::UpdateAction::kAddDip
                      : workload::UpdateAction::kRemoveDip;
  update.cause = workload::UpdateCause::kServiceUpgrade;
  return update;
}

/// Channel whose deliveries take 10 ms and whose first retransmit waits a
/// second: appended positions stay unapplied until the simulator runs on.
fault::ControlChannel::Config stalled_channel() {
  fault::ControlChannel::Config channel;
  channel.base_delay = 10 * sim::kMillisecond;
  channel.retry_timeout = sim::kSecond;
  return channel;
}

/// XOR of VipDigest::of over switch `i`'s current data-plane pools,
/// recomputed from scratch.
std::uint64_t recomputed_digest(const SilkRoadFleet& fleet, std::size_t i,
                                const std::vector<net::Endpoint>& vips) {
  std::uint64_t digest = 0;
  for (const auto& vip : vips) {
    const auto* mgr = fleet.switch_at(i).version_manager(vip);
    if (mgr == nullptr) continue;
    digest ^= VipDigest::of(vip, mgr->pool(mgr->current_version())->members());
  }
  return digest;
}

// --- VipDigest token algebra -------------------------------------------------

TEST(VipDigest, OrderIndependent) {
  const auto dips = make_dips(5);
  std::vector<net::Endpoint> shuffled = {dips[3], dips[0], dips[4], dips[2],
                                         dips[1]};
  EXPECT_EQ(VipDigest::of(vip_ep(), dips), VipDigest::of(vip_ep(), shuffled));
}

TEST(VipDigest, EmptyPoolIsNotAbsentVip) {
  const std::vector<net::Endpoint> none;
  EXPECT_NE(VipDigest::of(vip_ep(), none), 0u);
  EXPECT_EQ(VipDigest::of(vip_ep(), none), VipDigest::presence_token(vip_ep()));
  EXPECT_NE(VipDigest::of(vip_ep(1), none), VipDigest::of(vip_ep(2), none));
}

TEST(VipDigest, MemberTokensAreSaltedPerVip) {
  // Identical DIP sets under different VIPs must not cancel: the member
  // token depends on the VIP key, not just the DIP.
  EXPECT_NE(VipDigest::member_token(vip_ep(1), dip_ep(7)),
            VipDigest::member_token(vip_ep(2), dip_ep(7)));
  const auto dips = make_dips(3);
  EXPECT_NE(VipDigest::of(vip_ep(1), dips) ^ VipDigest::of(vip_ep(2), dips),
            VipDigest::presence_token(vip_ep(1)) ^
                VipDigest::presence_token(vip_ep(2)));
}

TEST(VipDigest, MembershipIsAnO1Toggle) {
  const auto dips = make_dips(2);
  const std::vector<net::Endpoint> both = {dips[0], dips[1]};
  const std::vector<net::Endpoint> one = {dips[0]};
  EXPECT_EQ(VipDigest::of(vip_ep(), one) ^
                VipDigest::member_token(vip_ep(), dips[1]),
            VipDigest::of(vip_ep(), both));
}

TEST(DigestedPool, DigestEqualsRecomputeOverRandomMutations) {
  std::mt19937_64 rng(0xD16E57ULL);
  const auto dips = make_dips(12);
  DigestedPool pool(vip_ep());
  std::set<net::Endpoint> reference;
  for (int step = 0; step < 2000; ++step) {
    const net::Endpoint& dip = dips[rng() % dips.size()];
    switch (rng() % 5) {
      case 0:
      case 1:
        EXPECT_EQ(pool.insert(dip), reference.insert(dip).second);
        break;
      case 2:
      case 3:
        EXPECT_EQ(pool.erase(dip), reference.erase(dip) == 1);
        break;
      default: {
        std::vector<net::Endpoint> next;
        for (const auto& d : dips) {
          if (rng() % 2 == 0) next.push_back(d);
        }
        pool.assign(next);
        reference.clear();
        reference.insert(next.begin(), next.end());
        break;
      }
    }
    ASSERT_EQ(pool.digest(), VipDigest::of(vip_ep(), reference))
        << "step " << step;
    ASSERT_EQ(pool.dips().size(), reference.size()) << "step " << step;
  }
}

// --- Watermarks, lag, and the hysteretic SLO --------------------------------

TEST(FleetObserver, EffectiveWatermarkExtendsThroughOutOfBandPositions) {
  sim::Simulator sim;
  fault::ControlChannel::Config channel;
  channel.base_delay = 100 * sim::kMicrosecond;
  SilkRoadFleet fleet(sim, small_config(), 1, 0xFEE7ULL, channel);
  FleetObserver& observer = *fleet.observer();
  fleet.add_vip(vip_ep(), make_dips(2));
  observer.evaluate(sim.now());
  // add_vip applied position 1 in place: the watermark stays put while the
  // effective watermark extends through the out-of-band position.
  EXPECT_EQ(fleet.applied_through(0), 0u);
  EXPECT_EQ(observer.effective_watermark(0), 1u);
  EXPECT_EQ(observer.lag_positions(0), 0u);
  // A later in-order delivery folds the out-of-band run into the watermark.
  fleet.request_update(update_of(vip_ep(), dip_ep(9), true));
  sim.run();
  EXPECT_EQ(fleet.applied_through(0), 2u);
  EXPECT_EQ(observer.effective_watermark(0), 2u);
  observer.evaluate(sim.now());
  EXPECT_EQ(observer.divergences(), 0u);
}

TEST(FleetObserver, SloHysteresisEntersExitsAndBurns) {
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 1, 0xFEE7ULL, stalled_channel());
  FleetObserver& observer = *fleet.observer();
  const auto dips = make_dips(2);
  fleet.add_vip(vip_ep(), dips);
  // Stall the channel past kLagEnter with remove/add pairs, in two groups
  // 5 ms apart so the first lands before the second.
  const sim::Time t0 = sim.now();
  const std::uint64_t tail = FleetObserver::kLagExit + 4;
  const std::uint64_t burst = FleetObserver::kLagEnter + 6;
  for (std::uint64_t i = 0; i < burst; ++i) {
    if (i == burst - tail) sim.run_until(t0 + 5 * sim::kMillisecond);
    fleet.request_update(update_of(vip_ep(), dips[0], i % 2 == 1));
  }
  sim.run_until(t0 + 6 * sim::kMillisecond);
  observer.evaluate(sim.now());
  EXPECT_EQ(observer.lag_positions(0), burst);
  EXPECT_GT(observer.lag_age(0), 0u);
  EXPECT_FALSE(observer.slo_ok());
  EXPECT_EQ(observer.slo_transitions(), 1u);
  // Burn accrues while violated.
  sim.run_until(t0 + 7 * sim::kMillisecond);
  observer.evaluate(sim.now());
  EXPECT_GE(observer.slo_burn_ns(), sim::kMillisecond);
  // Hysteresis: the first group landed, but a lag above kLagExit keeps the
  // switch lagging.
  sim.run_until(t0 + 12 * sim::kMillisecond);
  observer.evaluate(sim.now());
  EXPECT_EQ(observer.lag_positions(0), tail);
  EXPECT_FALSE(observer.slo_ok());
  // Catching up past kLagExit clears the latch and the violation.
  sim.run();
  observer.evaluate(sim.now());
  EXPECT_EQ(observer.lag_positions(0), 0u);
  EXPECT_TRUE(observer.slo_ok());
  EXPECT_EQ(observer.slo_transitions(), 2u);
  EXPECT_EQ(observer.divergences(), 0u);
  // Hysteresis: a lag between exit and enter does not re-enter lagging.
  for (std::uint64_t i = 0; i < tail; ++i) {
    fleet.request_update(update_of(vip_ep(), dips[1], i % 2 == 1));
  }
  observer.evaluate(sim.now());
  EXPECT_EQ(observer.lag_positions(0), tail);
  EXPECT_TRUE(observer.slo_ok());
}

// --- Divergence detection ----------------------------------------------------

TEST(FleetObserver, SilentDivergenceAttributesPerVipDeltas) {
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 2);
  FleetObserver& observer = *fleet.observer();
  const auto dips = make_dips(3);
  fleet.add_vip(vip_ep(), dips);
  observer.evaluate(sim.now());
  EXPECT_EQ(observer.divergences(), 0u);

  // Switch 1's apply path silently loses a member: the check it triggers
  // fires at once, attributing the missing DIP.
  fleet.inject_mirror_corruption(1, vip_ep(), dips[2], /*add=*/false);
  EXPECT_EQ(observer.divergences(), 1u);
  ASSERT_EQ(fleet.divergence_reports().size(), 1u);  // The callback fired.
  auto findings = observer.findings();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].switch_index, 1u);
  EXPECT_EQ(findings[0].position, 1u);
  ASSERT_EQ(findings[0].deltas.size(), 1u);
  EXPECT_EQ(findings[0].deltas[0].vip, vip_ep());
  ASSERT_EQ(findings[0].deltas[0].missing.size(), 1u);
  EXPECT_EQ(findings[0].deltas[0].missing[0], dips[2]);
  EXPECT_TRUE(findings[0].deltas[0].extra.empty());

  // Heal, then gain a stray member instead: a fresh episode attributes the
  // extra DIP.
  fleet.inject_mirror_corruption(1, vip_ep(), dips[2], /*add=*/true);
  fleet.inject_mirror_corruption(1, vip_ep(), dip_ep(99), /*add=*/true);
  EXPECT_EQ(observer.divergences(), 2u);
  EXPECT_EQ(fleet.divergence_reports().size(), 2u);
  findings = observer.findings();
  ASSERT_EQ(findings.size(), 2u);
  ASSERT_EQ(findings[1].deltas.size(), 1u);
  EXPECT_TRUE(findings[1].deltas[0].missing.empty());
  ASSERT_EQ(findings[1].deltas[0].extra.size(), 1u);
  EXPECT_EQ(findings[1].deltas[0].extra[0], dip_ep(99));
  // The healthy replica is untouched.
  EXPECT_EQ(observer.switch_digest(0), observer.desired_digest());
  EXPECT_EQ(recomputed_digest(fleet, 0, {vip_ep()}), observer.desired_digest());
}

TEST(FleetObserver, EpisodeLatchDedupsUntilDigestsAgreeAgain) {
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 1);
  FleetObserver& observer = *fleet.observer();
  const auto dips = make_dips(2);
  fleet.add_vip(vip_ep(), dips);
  fleet.inject_mirror_corruption(0, vip_ep(), dips[0], /*add=*/false);
  EXPECT_EQ(observer.divergences(), 1u);
  // Still diverged: repeated evaluation reports the same episode once.
  observer.evaluate(sim.now());
  observer.evaluate(sim.now());
  EXPECT_EQ(observer.divergences(), 1u);
  // Heal, then diverge again: a fresh episode is counted.
  fleet.inject_mirror_corruption(0, vip_ep(), dips[0], /*add=*/true);
  EXPECT_EQ(observer.divergences(), 1u);
  fleet.inject_mirror_corruption(0, vip_ep(), dips[1], /*add=*/false);
  EXPECT_EQ(observer.divergences(), 2u);
}

TEST(FleetObserver, ChecksAreSuspendedDuringResyncSessions) {
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 1);
  FleetObserver& observer = *fleet.observer();
  const auto dips = make_dips(2);
  fleet.add_vip(vip_ep(), dips);
  // Every transmission to the switch is lost: the update's retries escalate
  // to a resync session whose chunks are lost too, so a session stays open.
  fleet.set_channel_loss_hook(0, [](sim::Time) { return true; });
  fleet.request_update(update_of(vip_ep(), dip_ep(9), true));
  sim.run_until(sim.now() + 100 * sim::kMillisecond);
  EXPECT_EQ(observer.state(0), FleetObserver::SwitchState::kResyncing);
  // Mid-resync mirror churn is not misread as divergence.
  fleet.inject_mirror_corruption(0, vip_ep(), dips[0], /*add=*/false);
  observer.evaluate(sim.now());
  EXPECT_EQ(observer.divergences(), 0u);
  // The mirror heals before the session closes; the close makes the switch
  // checkable again and finds it consistent.
  fleet.inject_mirror_corruption(0, vip_ep(), dips[0], /*add=*/true);
  fleet.set_channel_loss_hook(0, nullptr);
  sim.run();
  EXPECT_EQ(observer.state(0), FleetObserver::SwitchState::kLive);
  observer.evaluate(sim.now());
  EXPECT_EQ(observer.divergences(), 0u);
  EXPECT_TRUE(observer.findings().empty());
  EXPECT_TRUE(fleet.converged());
}

TEST(FleetObserver, CompactedHistoryIsUnverifiableNotDivergent) {
  sim::Simulator sim;
  SyncConfig sync;
  sync.journal_capacity = 2;
  SilkRoadFleet fleet(sim, small_config(), 1, 0xFEE7ULL, stalled_channel(),
                      sync);
  FleetObserver& observer = *fleet.observer();
  fleet.add_vip(vip_ep(), make_dips(2));
  for (std::uint32_t n = 10; n < 19; ++n) {
    fleet.request_update(update_of(vip_ep(), dip_ep(n), true));
  }
  // Effective watermark 1 fell off the 2-position history: the check is
  // counted as unverifiable instead of comparing against the wrong
  // reference.
  observer.evaluate(sim.now());
  EXPECT_GE(observer.unverifiable_checks(), 1u);
  EXPECT_EQ(observer.divergences(), 0u);
  sim.run();
  observer.evaluate(sim.now());
  EXPECT_EQ(observer.divergences(), 0u);
  EXPECT_TRUE(fleet.converged());
}

// --- Through a real fleet ----------------------------------------------------

TEST(FleetConvergence, SeededMirrorCorruptionIsCaughtWithAttribution) {
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 3);
  const auto dips = make_dips(4);
  fleet.add_vip(vip_ep(), dips);
  sim.run();
  fleet.request_update(update_of(vip_ep(), dip_ep(8), true));
  sim.run();
  ASSERT_NE(fleet.observer(), nullptr);
  fleet.observer()->evaluate(sim.now());
  EXPECT_EQ(fleet.observer()->divergences(), 0u);

  fleet.inject_mirror_corruption(1, vip_ep(), dips[2], /*add=*/false);
  EXPECT_EQ(fleet.observer()->divergences(), 1u);
  const auto findings = fleet.observer()->findings();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].switch_index, 1u);
  ASSERT_EQ(findings[0].deltas.size(), 1u);
  ASSERT_EQ(findings[0].deltas[0].missing.size(), 1u);
  EXPECT_EQ(findings[0].deltas[0].missing[0], dips[2]);
  EXPECT_TRUE(findings[0].deltas[0].extra.empty());

  // The divergence callback assembled a ForensicsReport with the finding's
  // attribution attached.
  ASSERT_EQ(fleet.divergence_reports().size(), 1u);
  const auto& report = fleet.divergence_reports()[0];
  EXPECT_NE(report.reason.find("silent divergence"), std::string::npos);
  EXPECT_FALSE(report.divergence_text.empty());
  EXPECT_NE(report.to_json().find("\"divergence\":"), std::string::npos);

  // Healing the mirror re-arms the episode latch; no further findings.
  fleet.inject_mirror_corruption(1, vip_ep(), dips[2], /*add=*/true);
  fleet.observer()->evaluate(sim.now());
  EXPECT_EQ(fleet.observer()->divergences(), 1u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fleet.observer()->switch_digest(i),
              fleet.observer()->desired_digest());
    EXPECT_EQ(recomputed_digest(fleet, i, {vip_ep()}),
              fleet.observer()->desired_digest());
  }
}

TEST(FleetConvergence, IncrementalDigestsEqualRecomputeAcrossInterleavings) {
  // Property: after any interleaving of updates, crashes, restores, and
  // partial deliveries, a fault-free fleet reports zero silent divergences
  // at every evaluation, and at quiescence every switch's maintained digest
  // equals the desired digest and a from-scratch data-plane recompute.
  const std::vector<net::Endpoint> vips = {vip_ep(1), vip_ep(2)};
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    std::mt19937_64 rng(0x51172D00ULL + seed);
    sim::Simulator sim;
    fault::ControlChannel::Config channel;
    channel.base_delay = 100 * sim::kMicrosecond;
    channel.jitter = 400 * sim::kMicrosecond;
    channel.drop_probability = 0.1;
    SyncConfig sync;
    sync.journal_capacity = 64;  // Force occasional full-state escalation.
    sync.chunk_entries = 4;
    SilkRoadFleet fleet(sim, small_config(), 3, 0xFEE7ULL + seed, channel,
                        sync);
    FleetObserver& observer = *fleet.observer();
    const auto dips = make_dips(6);
    fleet.add_vip(vips[0], dips);
    fleet.add_vip(vips[1], {dips[0], dips[1]});
    sim.run();
    std::vector<bool> up(3, true);
    for (int step = 0; step < 120; ++step) {
      const std::uint32_t roll = static_cast<std::uint32_t>(rng() % 100);
      if (roll < 70) {
        const net::Endpoint vip = vips[rng() % 2];
        fleet.request_update(
            update_of(vip, dips[rng() % dips.size()], rng() % 2 == 0));
      } else if (roll < 78) {
        const std::size_t victim = rng() % 3;
        if (up[victim] && fleet.live_count() > 1) {
          fleet.fail_switch(victim);
          up[victim] = false;
        }
      } else if (roll < 86) {
        const std::size_t victim = rng() % 3;
        if (!up[victim]) {
          fleet.restore_switch(victim);
          up[victim] = true;
        }
      } else {
        sim.run();  // Drain in-flight channel work before more churn.
      }
      if (step % 16 == 0) {
        observer.evaluate(sim.now());
        EXPECT_EQ(observer.divergences(), 0u) << "seed " << seed;
      }
    }
    for (std::size_t i = 0; i < 3; ++i) {
      if (!up[i]) fleet.restore_switch(i);
    }
    sim.run();
    ASSERT_TRUE(fleet.converged()) << "seed " << seed;
    observer.evaluate(sim.now());
    EXPECT_EQ(observer.divergences(), 0u) << "seed " << seed;
    EXPECT_TRUE(observer.slo_ok()) << "seed " << seed;
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(observer.switch_digest(i), observer.desired_digest())
          << "seed " << seed << " switch " << i;
      EXPECT_EQ(recomputed_digest(fleet, i, vips), observer.desired_digest())
          << "seed " << seed << " switch " << i;
    }
  }
}

TEST(FleetConvergence, RenderingsCarryTheHeadline) {
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 2);
  fleet.add_vip(vip_ep(), make_dips(2));
  sim.run();
  fleet.observer()->evaluate(sim.now());
  const std::string text = fleet.observer()->to_text();
  EXPECT_NE(text.find("fleet convergence observatory"), std::string::npos);
  EXPECT_NE(text.find("divergences: 0"), std::string::npos);
  const std::string json = fleet.observer()->to_json();
  EXPECT_NE(json.find("\"journal_head\""), std::string::npos);
  EXPECT_NE(json.find("\"slo\""), std::string::npos);
  EXPECT_NE(json.find("\"switches\""), std::string::npos);
}

}  // namespace
}  // namespace silkroad::deploy
