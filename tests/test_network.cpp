#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <tuple>

#include "gpucomm/net/network.hpp"
#include "gpucomm/sim/random.hpp"

namespace gpucomm {
namespace {

struct Fixture {
  Graph g;
  Engine engine;
  DeviceId a, b, c;
  LinkId ab, bc;
  std::unique_ptr<Network> net;

  Fixture() {
    a = g.add_device({DeviceKind::kGpu, 0, 0, "a"});
    b = g.add_device({DeviceKind::kGpu, 0, 1, "b"});
    c = g.add_device({DeviceKind::kGpu, 0, 2, "c"});
    ab = g.add_duplex_link(a, b, gbps(100), microseconds(1), LinkType::kNvLink);
    bc = g.add_duplex_link(b, c, gbps(100), microseconds(2), LinkType::kNvLink);
    net = std::make_unique<Network>(engine, g);
  }
};

TEST(NetworkTest, SingleFlowSerializationPlusLatency) {
  Fixture f;
  SimTime done = SimTime::infinity();
  f.net->start_flow({{f.ab}, 1_MiB, 0, 0}, [&](SimTime t) { done = t; });
  f.engine.run();
  // 1 MiB at 100 Gb/s = 83.886 us + 1 us latency.
  EXPECT_NEAR(done.micros(), 83.886 + 1.0, 0.05);
}

TEST(NetworkTest, MultiHopLatencyAccumulates) {
  Fixture f;
  SimTime done = SimTime::infinity();
  f.net->start_flow({{f.ab, f.bc}, 1_KiB, 0, 0}, [&](SimTime t) { done = t; });
  f.engine.run();
  EXPECT_NEAR(done.micros(), 1_KiB * 8.0 / 100e9 * 1e6 + 3.0, 0.05);
}

TEST(NetworkTest, TwoFlowsShareThenSpeedUp) {
  // Two equal flows on one link: both finish at 2x the solo time; a flow
  // started after the first finishes gets the full rate.
  Fixture f;
  SimTime d1, d2;
  f.net->start_flow({{f.ab}, 1_MiB, 0, 0}, [&](SimTime t) { d1 = t; });
  f.net->start_flow({{f.ab}, 1_MiB, 0, 0}, [&](SimTime t) { d2 = t; });
  f.engine.run();
  const double solo_us = 1_MiB * 8.0 / 100e9 * 1e6;
  EXPECT_NEAR(d1.micros(), 2 * solo_us + 1.0, 0.1);
  EXPECT_NEAR(d2.micros(), 2 * solo_us + 1.0, 0.1);
}

TEST(NetworkTest, UnequalFlowsExhibitWorkConservation) {
  // Small flow finishes first; the large one then accelerates. Total time
  // for the large flow: share phase + solo phase.
  Fixture f;
  SimTime small_done, large_done;
  f.net->start_flow({{f.ab}, 1_MiB, 0, 0}, [&](SimTime t) { small_done = t; });
  f.net->start_flow({{f.ab}, 3_MiB, 0, 0}, [&](SimTime t) { large_done = t; });
  f.engine.run();
  const double mib_us = 1_MiB * 8.0 / 100e9 * 1e6;  // 1 MiB at full rate
  // Small: 1 MiB at 50 Gb/s = 2*mib_us (+1us). Large: 1 MiB during sharing
  // + 2 MiB solo = 2*mib_us + 2*mib_us = 4*mib_us (+1us).
  EXPECT_NEAR(small_done.micros(), 2 * mib_us + 1, 0.2);
  EXPECT_NEAR(large_done.micros(), 4 * mib_us + 1, 0.2);
}

TEST(NetworkTest, RateCapLimitsFlow) {
  Fixture f;
  SimTime done;
  f.net->start_flow({{f.ab}, 1_MiB, 0, gbps(10)}, [&](SimTime t) { done = t; });
  f.engine.run();
  EXPECT_NEAR(done.micros(), 10 * (1_MiB * 8.0 / 100e9 * 1e6) + 1.0, 0.5);
}

TEST(NetworkTest, CapWithoutRouteActsAsPrivateLink) {
  Fixture f;
  SimTime done;
  f.net->start_flow({{}, 1_MiB, 0, gbps(50)}, [&](SimTime t) { done = t; });
  f.engine.run();
  EXPECT_NEAR(done.micros(), 2 * (1_MiB * 8.0 / 100e9 * 1e6), 0.5);
}

TEST(NetworkTest, ZeroByteFlowDeliversAfterLatencyOnly) {
  Fixture f;
  SimTime done = SimTime::infinity();
  f.net->start_flow({{f.ab}, 0, 0, 0}, [&](SimTime t) { done = t; });
  f.engine.run();
  EXPECT_LE(done.micros(), 1.1);
}

TEST(NetworkTest, DisjointFlowsDoNotInterfere) {
  Fixture f;
  SimTime d1, d2;
  f.net->start_flow({{f.ab}, 1_MiB, 0, 0}, [&](SimTime t) { d1 = t; });
  f.net->start_flow({{f.bc}, 1_MiB, 0, 0}, [&](SimTime t) { d2 = t; });
  f.engine.run();
  const double solo_us = 1_MiB * 8.0 / 100e9 * 1e6;
  EXPECT_NEAR(d1.micros(), solo_us + 1, 0.1);
  EXPECT_NEAR(d2.micros(), solo_us + 2, 0.1);
}

TEST(NetworkTest, BitsDeliveredAccumulates) {
  Fixture f;
  f.net->start_flow({{f.ab}, 1_MiB, 0, 0}, nullptr);
  f.net->start_flow({{f.bc}, 2_MiB, 0, 0}, nullptr);
  f.engine.run();
  EXPECT_DOUBLE_EQ(f.net->total_bits_delivered(), 3.0 * 1_MiB * 8);
}

TEST(NetworkTest, ActiveFlowCountTracks) {
  Fixture f;
  f.net->start_flow({{f.ab}, 1_MiB, 0, 0}, nullptr);
  f.net->start_flow({{f.ab}, 1_MiB, 0, 0}, nullptr);
  EXPECT_EQ(f.net->active_flows(), 2u);
  f.engine.run();
  EXPECT_EQ(f.net->active_flows(), 0u);
}

/// Noise field that occupies half of every link and adds a fixed delay.
class HalfNoise final : public NoiseField {
 public:
  double background_utilization(LinkId) const override { return 0.5; }
  SimTime queueing_delay(LinkId) override { return microseconds(10); }
  void resample() override {}
};

TEST(NetworkTest, NoiseReducesCapacityOnNoisyVl) {
  Fixture f;
  HalfNoise noise;
  f.net->set_noise(&noise);
  SimTime done;
  f.net->start_flow({{f.ab}, 1_MiB, /*vl=*/0, 0}, [&](SimTime t) { done = t; });
  f.engine.run();
  const double solo_us = 1_MiB * 8.0 / 100e9 * 1e6;
  // Half capacity + 10 us queueing on the single hop.
  EXPECT_NEAR(done.micros(), 2 * solo_us + 1 + 10, 0.5);
}

TEST(NetworkTest, OtherServiceLevelIsolatedFromNoise) {
  Fixture f;
  HalfNoise noise;
  f.net->set_noise(&noise);
  SimTime done;
  f.net->start_flow({{f.ab}, 1_MiB, /*vl=*/1, 0}, [&](SimTime t) { done = t; });
  f.engine.run();
  const double solo_us = 1_MiB * 8.0 / 100e9 * 1e6;
  EXPECT_NEAR(done.micros(), solo_us + 1, 0.5);
}

// ---------------------------------------------------------------------------
// Randomized event-stream differential suite (PR 7).
//
// The incremental/partitioned solver's contract is that its rates are
// BIT-identical to the full-resolve reference (every component re-solved
// from scratch on every event) under flow churn, fault flaps, congestion
// coupling, and noise epochs. These tests replay one deterministic
// pseudo-random event stream through both modes and compare every
// completion timestamp (picoseconds, exact), every interruption record, and
// mid-run rate samples as raw double bit patterns. Any divergence, however
// small, is a contract violation.

/// Versioned noise whose per-link utilization is a pure hash of
/// (link, epoch): deterministic across runs, different every resample.
class ChurnNoise final : public NoiseField {
 public:
  double background_utilization(LinkId link) const override {
    std::uint64_t h = (link + 1) * 0x9e3779b97f4a7c15ull + version_ * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 31;
    return 0.4 * static_cast<double>(h % 1024) / 1024.0;
  }
  SimTime queueing_delay(LinkId) override { return SimTime::zero(); }
  void resample() override { ++version_; }
  std::uint64_t version() const override { return version_; }

 private:
  std::uint64_t version_ = 1;
};

/// Scripted link flaps: at most one directed link down at a time.
class FlapFaults final : public fault::FaultModel {
 public:
  bool link_up(LinkId link) const override { return link != down_; }
  double capacity_factor(LinkId) const override { return 1.0; }
  double straggler_factor(int) const override { return 1.0; }
  LinkId down_ = kInvalidLink;
};

struct DiffReplay {
  struct Result {
    std::vector<std::pair<FlowId, std::int64_t>> delivered;  // (id, ps)
    std::vector<std::tuple<FlowId, Bytes, std::int64_t>> interrupted;
    std::vector<std::uint64_t> rate_bits;  // flow_rate samples, raw doubles
    double bits_delivered = 0;
    bool operator==(const Result&) const = default;
  };

  struct Options {
    SolverMode mode = SolverMode::kIncremental;
    bool faults = false;
    bool congestion = false;
    bool noise = false;
    std::uint64_t seed = 1;
  };

  /// Two-tier leaf-spine fabric: 4 leaves x 4 GPUs, 2 spines. Small enough
  /// to run thousands of events, large enough that churn splits and merges
  /// components constantly (GPU pairs under one leaf are independent of the
  /// rest until a cross-leaf flow couples them through the spine).
  static Result run(const Options& o) {
    constexpr int kLeaves = 4, kSpines = 2, kGpusPerLeaf = 4;
    Graph g;
    std::vector<DeviceId> leaf(kLeaves), spine(kSpines);
    std::vector<std::vector<DeviceId>> gpu(kLeaves);
    std::vector<std::vector<LinkId>> up(kLeaves);              // gpu -> leaf
    std::vector<std::vector<LinkId>> trunk(kLeaves);           // leaf -> spine
    for (int s = 0; s < kSpines; ++s) {
      spine[s] = g.add_device({DeviceKind::kSwitch, -1, s, "spine"});
    }
    for (int l = 0; l < kLeaves; ++l) {
      leaf[l] = g.add_device({DeviceKind::kSwitch, -1, l, "leaf"});
      for (int k = 0; k < kGpusPerLeaf; ++k) {
        const DeviceId d = g.add_device({DeviceKind::kGpu, l, k, "gpu"});
        gpu[l].push_back(d);
        up[l].push_back(
            g.add_duplex_link(d, leaf[l], gbps(100), microseconds(1), LinkType::kNvLink));
      }
      trunk[l].resize(kSpines);
      for (int s = 0; s < kSpines; ++s) {
        trunk[l][s] = g.add_duplex_link(leaf[l], spine[s], gbps(100), microseconds(2),
                                        LinkType::kLeafSpine);
      }
    }
    // gpu->leaf is link id, leaf->gpu is id+1; same for leaf->spine.
    const auto route = [&](int src_leaf, int src_gpu, int dst_leaf, int dst_gpu, int s) {
      Route r;
      r.push_back(up[src_leaf][src_gpu]);
      if (src_leaf != dst_leaf) {
        r.push_back(trunk[src_leaf][s]);
        r.push_back(trunk[dst_leaf][s] + 1);
      }
      r.push_back(up[dst_leaf][dst_gpu] + 1);
      return r;
    };

    Engine engine;
    Network net(engine, g);
    net.set_solver_mode(o.mode);
    if (o.congestion) net.set_congestion({/*flow_threshold=*/2, /*rate_factor=*/0.5});
    ChurnNoise noise;
    if (o.noise) net.set_noise(&noise);
    FlapFaults faults;
    if (o.faults) net.set_faults(&faults);

    Result r;
    std::vector<FlowId> issued;
    struct Start {
      Route route;
      Bytes bytes;
      int vl;
      Bandwidth cap;
    };
    // Both callbacks need the flow's id, which start_flow only returns after
    // they are already bound into the spec — so they read it from a shared
    // cell filled in right after the call. Both fire via the engine, strictly
    // after start_flow returns, so the cell is always populated by then.
    const auto launch = [&net, &r, &issued](const Start& st) {
      auto cell = std::make_shared<FlowId>(0);
      FlowSpec spec{st.route, st.bytes, st.vl, st.cap};
      spec.on_interrupted = [&r, cell](Bytes serialized, SimTime now) {
        r.interrupted.emplace_back(*cell, serialized, now.ps);
      };
      *cell = net.start_flow(std::move(spec), [&r, cell](SimTime t) {
        r.delivered.emplace_back(*cell, t.ps);
      });
      issued.push_back(*cell);
    };

    Rng rng(o.seed);
    constexpr int kWaves = 60;
    for (int w = 0; w < kWaves; ++w) {
      const SimTime t = microseconds(static_cast<double>(w) * 25.0);
      // 1-5 new flows per wave: mixed intra-leaf and cross-leaf, two VLs,
      // an occasional private rate cap.
      const int count = 1 + static_cast<int>(rng.uniform_int(5));
      std::vector<Start> starts;
      for (int i = 0; i < count; ++i) {
        const int sl = static_cast<int>(rng.uniform_int(kLeaves));
        const int sg = static_cast<int>(rng.uniform_int(kGpusPerLeaf));
        int dl = static_cast<int>(rng.uniform_int(kLeaves));
        int dg = static_cast<int>(rng.uniform_int(kGpusPerLeaf));
        if (dl == sl && dg == sg) dg = (dg + 1) % kGpusPerLeaf;
        const int s = static_cast<int>(rng.uniform_int(kSpines));
        Start st;
        st.route = route(sl, sg, dl, dg, s);
        st.bytes = static_cast<Bytes>(1_KiB << rng.uniform_int(12));  // 1 KiB .. 2 MiB
        st.vl = rng.bernoulli(0.3) ? 1 : 0;
        st.cap = rng.bernoulli(0.2) ? gbps(rng.uniform(5.0, 60.0)) : 0;
        starts.push_back(std::move(st));
      }
      engine.at(t, [&launch, starts = std::move(starts)] {
        for (const Start& st : starts) launch(st);
      });
    }
    if (o.faults) {
      // Flap a rotating trunk link: down mid-wave, up 60us later. Downed
      // links interrupt crossing flows and force the routing fallback.
      for (int f = 0; f < 6; ++f) {
        const LinkId target =
            trunk[f % kLeaves][f % kSpines] + static_cast<LinkId>(f % 2);
        const SimTime down_at = microseconds(110.0 + 180.0 * f + 7.0);
        engine.at(down_at, [&net, &faults, target] {
          faults.down_ = target;
          net.on_link_state_change();
        });
        engine.at(down_at + microseconds(60.0), [&net, &faults] {
          faults.down_ = kInvalidLink;
          net.on_link_state_change();
        });
      }
    }
    if (o.noise) {
      // Noise epochs between waves: capacities move under the active set.
      for (int e = 0; e < 10; ++e) {
        engine.at(microseconds(55.0 + 140.0 * e + 3.0), [&noise] { noise.resample(); });
      }
    }
    // Mid-run rate probes: every issued flow's current rate, raw bits.
    for (int p = 0; p < 30; ++p) {
      engine.at(microseconds(13.0 + 50.0 * p), [&net, &r, &issued] {
        for (const FlowId id : issued) {
          r.rate_bits.push_back(std::bit_cast<std::uint64_t>(net.flow_rate(id)));
        }
      });
    }

    engine.run();
    r.bits_delivered = net.total_bits_delivered();
    return r;
  }
};

/// One replay under the full-resolve reference, compared bit-for-bit against
/// the incremental solver.
void expect_differential_identity(DiffReplay::Options o) {
  o.mode = SolverMode::kFullResolve;
  const DiffReplay::Result ref = DiffReplay::run(o);
  EXPECT_FALSE(ref.delivered.empty());
  o.mode = SolverMode::kIncremental;
  const DiffReplay::Result got = DiffReplay::run(o);
  EXPECT_EQ(ref.delivered, got.delivered);
  EXPECT_EQ(ref.interrupted, got.interrupted);
  EXPECT_EQ(ref.rate_bits, got.rate_bits);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.bits_delivered),
            std::bit_cast<std::uint64_t>(got.bits_delivered));
}

TEST(NetworkDifferential, IncrementalMatchesFullResolveUnderChurn) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    DiffReplay::Options o;
    o.seed = seed;
    SCOPED_TRACE(seed);
    expect_differential_identity(o);
  }
}

TEST(NetworkDifferential, FaultFlapsPreserveBitIdentity) {
  DiffReplay::Options o;
  o.faults = true;
  o.seed = 99;
  expect_differential_identity(o);
}

TEST(NetworkDifferential, CongestionClosureBitIdentity) {
  // rate_factor < 1 couples components through shared switches; the
  // incremental closure must expand through them or under-degrade.
  DiffReplay::Options o;
  o.congestion = true;
  o.seed = 5;
  expect_differential_identity(o);
}

TEST(NetworkDifferential, NoiseEpochsBitIdentity) {
  DiffReplay::Options o;
  o.noise = true;
  o.seed = 11;
  expect_differential_identity(o);
}

TEST(NetworkDifferential, CombinedChurnFaultsCongestionNoise) {
  DiffReplay::Options o;
  o.faults = true;
  o.congestion = true;
  o.noise = true;
  o.seed = 2026;
  expect_differential_identity(o);
}

TEST(NetworkTest, ManySequentialFlowsDeterministic) {
  // Two identical runs produce bit-identical completion times.
  auto run = [] {
    Fixture f;
    std::vector<std::int64_t> times;
    for (int i = 0; i < 50; ++i) {
      f.net->start_flow({{f.ab, f.bc}, static_cast<Bytes>(1_KiB * (i + 1)), 0, 0},
                        [&](SimTime t) { times.push_back(t.ps); });
    }
    f.engine.run();
    return times;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace gpucomm
