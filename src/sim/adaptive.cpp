#include "sim/adaptive.hpp"

#include <sstream>

#include "sim/protocol_table.hpp"
#include "stats/rng.hpp"

namespace eba {
namespace {

/// Faulty set {0..k-1}: renaming-equivariance makes the choice WLOG, and it
/// keeps realized patterns directly comparable with the canonical
/// enumeration's representatives.
FailurePattern canonical_faulty_base(int n, int k) {
  AgentSet nonfaulty = AgentSet::all(n);
  for (AgentId s = 0; s < k; ++s) nonfaulty.erase(s);
  return FailurePattern(n, nonfaulty);
}

class DeafenDecider final : public AdversaryStrategy {
 public:
  DeafenDecider(int n, int t, FailureModel model)
      : n_(n), k_(t), model_(model) {
    EBA_REQUIRE(t >= 0 && t < n, "budget must leave a nonfaulty agent");
  }

  [[nodiscard]] std::string name() const override { return "deafen_decider"; }
  [[nodiscard]] FailureModel model() const override { return model_; }

  [[nodiscard]] FailurePattern base_pattern() override {
    return canonical_faulty_base(n_, k_);
  }

  void on_round(const StagedRound& obs, FailurePattern& alpha) override {
    for (AgentId g = 0; g < k_; ++g) {
      if (model_ == FailureModel::general)
        for (AgentId d : obs.deciding_now)
          if (d != g) alpha.drop_receive(obs.round, d, g);
      if (obs.deciding_now.contains(g)) alpha.silence(obs.round, g);
    }
  }

 private:
  int n_;
  int k_;
  FailureModel model_;
};

class IsolateChain final : public AdversaryStrategy {
 public:
  IsolateChain(int n, int t) : n_(n), k_(t) {
    EBA_REQUIRE(t >= 0 && t < n, "budget must leave a nonfaulty agent");
  }

  [[nodiscard]] std::string name() const override { return "isolate_chain"; }
  [[nodiscard]] FailureModel model() const override {
    return FailureModel::sending;
  }

  [[nodiscard]] FailurePattern base_pattern() override {
    return canonical_faulty_base(n_, k_);
  }

  void on_round(const StagedRound& obs, FailurePattern& alpha) override {
    const int m = obs.round;
    for (AgentId g = 0; g < k_; ++g) {
      if (g < m) {
        alpha.silence(m, g);  // crashed after its chain hop
      } else if (g == m) {
        // The hop: deliver only to the next chain member; the LAST hop's
        // target is chosen online — the lowest-id nonfaulty agent still
        // undecided at this round.
        const AgentId target = g + 1 < k_ ? g + 1 : victim(obs);
        for (AgentId r = 0; r < n_; ++r)
          if (r != g && r != target) alpha.drop(m, g, r);
      }
      // g > m: behaves correctly this round (the chain is still hidden).
    }
  }

 private:
  [[nodiscard]] AgentId victim(const StagedRound& obs) const {
    for (AgentId i = k_; i < n_; ++i)
      if (!obs.decided.contains(i)) return i;
    return k_;
  }

  int n_;
  int k_;
};

class RandomBudget final : public AdversaryStrategy {
 public:
  RandomBudget(int n, int t, FailureModel model, std::uint64_t seed,
               double drop_prob)
      : n_(n), model_(model), rng_(seed), drop_prob_(drop_prob) {
    EBA_REQUIRE(t >= 0 && t < n, "budget must leave a nonfaulty agent");
    k_ = t >= 1 ? 1 + rng_.below(t) : 0;
  }

  [[nodiscard]] std::string name() const override { return "random_budget"; }
  [[nodiscard]] FailureModel model() const override { return model_; }

  [[nodiscard]] FailurePattern base_pattern() override {
    return canonical_faulty_base(n_, k_);
  }

  // RNG consumption is observation-independent (same draws per round no
  // matter who decides), so a seed fully determines the realized pattern.
  void on_round(const StagedRound& obs, FailurePattern& alpha) override {
    for (AgentId g = 0; g < k_; ++g)
      for (AgentId r = 0; r < n_; ++r) {
        if (r == g) continue;
        if (rng_.chance(drop_prob_)) alpha.drop(obs.round, g, r);
        if (model_ == FailureModel::general && rng_.chance(drop_prob_))
          alpha.drop_receive(obs.round, r, g);
      }
  }

  // The engine position is the whole mutable state (k_ is immutable after
  // construction but is carried for a cross-check). std::mt19937_64's
  // stream operators serialize the full 312-word state, so a restored
  // strategy replays the exact post-checkpoint draws.
  [[nodiscard]] std::string checkpoint_state() const override {
    std::ostringstream os;
    os << k_ << ' ' << rng_.engine();
    return os.str();
  }

  void restore_state(const std::string& state) override {
    std::istringstream is(state);
    int k = -1;
    is >> k >> rng_.engine();
    EBA_REQUIRE(!is.fail() && k == k_,
                "random_budget checkpoint does not match this strategy");
  }

 private:
  int n_;
  int k_ = 0;
  FailureModel model_;
  Rng rng_;
  double drop_prob_;
};

}  // namespace

std::unique_ptr<AdversaryStrategy> make_deafen_decider_strategy(
    int n, int t, FailureModel model) {
  return std::make_unique<DeafenDecider>(n, t, model);
}

std::unique_ptr<AdversaryStrategy> make_isolate_chain_strategy(int n, int t) {
  return std::make_unique<IsolateChain>(n, t);
}

std::unique_ptr<AdversaryStrategy> make_random_budget_strategy(
    int n, int t, FailureModel model, std::uint64_t seed, double drop_prob) {
  return std::make_unique<RandomBudget>(n, t, model, seed, drop_prob);
}

std::vector<NamedStrategyFactory> shipped_strategies(int n, int t,
                                                     FailureModel model) {
  std::vector<NamedStrategyFactory> out;
  out.push_back({"deafen_decider", [n, t, model](std::uint64_t /*seed*/) {
                   return make_deafen_decider_strategy(n, t, model);
                 }});
  out.push_back({"isolate_chain", [n, t](std::uint64_t /*seed*/) {
                   return make_isolate_chain_strategy(n, t);
                 }});
  out.push_back({"random_budget", [n, t, model](std::uint64_t seed) {
                   return make_random_budget_strategy(n, t, model, seed);
                 }});
  return out;
}

AdversaryHook make_strategy_hook(AdversaryStrategy& strat, int t) {
  return [&strat, t](const StagedRound& obs, FailurePattern& alpha) {
    const FailurePattern before = alpha;
    strat.on_round(obs, alpha);
    EBA_REQUIRE(alpha.n() == before.n() &&
                    alpha.nonfaulty().bits() == before.nonfaulty().bits(),
                "adaptive strategy changed the agent population");
    EBA_REQUIRE(alpha.in_model(strat.model(), t),
                "adaptive strategy left its model/budget");
    for (int m = 0; m < obs.round; ++m)
      for (AgentId i = 0; i < alpha.n(); ++i)
        EBA_REQUIRE(
            alpha.dropped(m, i).bits() == before.dropped(m, i).bits() &&
                alpha.dropped_receive(m, i).bits() ==
                    before.dropped_receive(m, i).bits(),
            "adaptive strategy rewrote a completed round");
  };
}

AdaptiveDriver make_adaptive_driver(ProtocolKind k, int n, int t) {
  return [=](AdversaryStrategy& s, const std::vector<Value>& inits) {
    return with_protocol(k, n, t, [&](const auto& x, const auto& p) {
      return run_adaptive(x, p, s, inits, t);
    });
  };
}

}  // namespace eba
