// Property-based tests over communication graphs harvested from random
// runs: lattice laws of merge, idempotence of view extraction, monotonicity
// of cones and fault knowledge, and serialization size accounting.
#include <gtest/gtest.h>

#include "exchange/fip.hpp"
#include "failure/generators.hpp"
#include "graph/knowledge.hpp"
#include "net/serialize.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace eba {
namespace {

struct Shape {
  int n;
  int t;
  std::uint64_t seed;
};

class GraphProperties : public ::testing::TestWithParam<Shape> {
 protected:
  /// All agents' states at all times of one random FIP run.
  std::vector<std::vector<FipState>> states() const {
    const auto [n, t, seed] = GetParam();
    Rng rng(seed);
    const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
    const auto prefs = sample_preferences(n, rng);
    auto noop = [](const FipState&) { return Action::noop(); };
    SimulateOptions opt;
    opt.max_rounds = t + 2;
    opt.stop_when_all_decided = false;
    return simulate(FipExchange(n), noop, alpha, prefs, t, opt).states;
  }
};

TEST_P(GraphProperties, MergeIsIdempotent) {
  for (const auto& row : states()) {
    for (const auto& s : row) {
      CommGraph g = s.graph();
      g.merge(s.graph());
      EXPECT_EQ(g, s.graph());
    }
  }
}

TEST_P(GraphProperties, MergeIsCommutativeOnDefiniteLabels) {
  const auto all = states();
  const auto& last = all.back();
  for (std::size_t a = 0; a < last.size(); ++a) {
    for (std::size_t b = a + 1; b < last.size(); ++b) {
      CommGraph ab = last[a].graph();
      ab.merge(last[b].graph());
      CommGraph ba = last[b].graph();
      ba.merge(last[a].graph());
      EXPECT_EQ(ab, ba) << "merging peers " << a << " and " << b;
    }
  }
}

TEST_P(GraphProperties, ExtractViewIsIdempotent) {
  const auto all = states();
  const auto& s = all.back()[0];
  const Cone cone(s.graph(), s.self, s.graph().time());
  for (int m = 0; m < s.graph().time(); ++m) {
    for (AgentId j : cone.at(m)) {
      const CommGraph once = extract_view(s.graph(), j, m);
      const CommGraph twice = extract_view(once, j, m);
      EXPECT_EQ(once, twice);
    }
  }
}

TEST_P(GraphProperties, ExtractViewIsTransitive) {
  // Extracting (k, m2) from an extracted view of (j, m) equals extracting
  // (k, m2) directly: what j knew about k's view is exactly what the
  // original owner knows about it.
  const auto all = states();
  const auto& s = all.back()[0];
  const int top = s.graph().time();
  const Cone cone(s.graph(), s.self, top);
  for (int m = 0; m < top; ++m) {
    for (AgentId j : cone.at(m)) {
      const CommGraph view = extract_view(s.graph(), j, m);
      const Cone sub(view, j, m);
      for (int m2 = 0; m2 < m; ++m2) {
        for (AgentId k : sub.at(m2)) {
          EXPECT_EQ(extract_view(view, k, m2), extract_view(s.graph(), k, m2));
        }
      }
    }
  }
}

TEST_P(GraphProperties, ConesGrowWithTime) {
  const auto all = states();
  for (std::size_t m = 1; m < all.size(); ++m) {
    for (const auto& s : all[m]) {
      const Cone now(s.graph(), s.self, s.time);
      // Everything heard by time m-1 is still heard at time m.
      const auto& prev_state = all[m - 1][static_cast<std::size_t>(s.self)];
      const Cone before(prev_state.graph(), s.self, prev_state.time);
      for (int m2 = 0; m2 < prev_state.time; ++m2)
        EXPECT_TRUE(before.at(m2).subset_of(now.at(m2)));
    }
  }
}

TEST_P(GraphProperties, KnownFaultsAreMonotoneAndSound) {
  const auto [n, t, seed] = GetParam();
  Rng rng(seed + 1);
  const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
  const auto prefs = sample_preferences(n, rng);
  auto noop = [](const FipState&) { return Action::noop(); };
  SimulateOptions opt;
  opt.max_rounds = t + 2;
  opt.stop_when_all_decided = false;
  const auto run = simulate(FipExchange(n), noop, alpha, prefs, t, opt);
  for (const auto& row : run.states) {
    for (const auto& s : row) {
      const auto table = known_faults_table(s.graph());
      for (int m = 0; m + 1 <= s.graph().time(); ++m) {
        for (AgentId j = 0; j < n; ++j) {
          const AgentSet fm = table[static_cast<std::size_t>(m)]
                                   [static_cast<std::size_t>(j)];
          const AgentSet fm1 = table[static_cast<std::size_t>(m + 1)]
                                    [static_cast<std::size_t>(j)];
          EXPECT_TRUE(fm.subset_of(fm1)) << "f monotone in time";
          // Soundness: only genuinely faulty agents are ever blamed.
          EXPECT_TRUE(fm1.subset_of(alpha.faulty()));
        }
      }
    }
  }
}

TEST_P(GraphProperties, SerializationRoundTripsAndSizesMatch) {
  const auto all = states();
  for (const auto& row : all) {
    for (const auto& s : row) {
      Writer w;
      encode_graph(w, s.graph());
      const Bytes payload = w.take();
      Reader r(payload);
      EXPECT_EQ(decode_graph(r), s.graph());
      // 8 header bytes + two ceil(n/8)-byte plane words per receiver row
      // (time * n rows) plus two for the preference planes.
      const std::size_t row_bytes =
          (static_cast<std::size_t>(s.graph().n()) + 7) / 8;
      const std::size_t rows = static_cast<std::size_t>(s.graph().time()) *
                               static_cast<std::size_t>(s.graph().n());
      EXPECT_EQ(payload.size(), 8u + 2 * row_bytes * (rows + 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRuns, GraphProperties,
                         ::testing::Values(Shape{4, 1, 1}, Shape{5, 2, 2},
                                           Shape{6, 3, 3}, Shape{8, 3, 4},
                                           Shape{10, 4, 5}, Shape{12, 5, 6}),
                         [](const ::testing::TestParamInfo<Shape>& pinfo) {
                           std::string name = "n";
                           name += std::to_string(pinfo.param.n);
                           name += "t";
                           name += std::to_string(pinfo.param.t);
                           name += "s";
                           name += std::to_string(pinfo.param.seed);
                           return name;
                         });

}  // namespace
}  // namespace eba
