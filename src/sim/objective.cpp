#include "sim/objective.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "action/p_opt.hpp"
#include "action/p_opt_go.hpp"
#include "exchange/fip.hpp"
#include "failure/generators.hpp"
#include "sim/simulator.hpp"

namespace eba {
namespace {

/// Worst score over preference vectors plus the pruning side-channels
/// (failure/strategy.hpp PatternScore).
struct Accumulator {
  PatternScore out{.score = 0, .settled_round = 0, .rounds_executed = 0};

  void add(double score, int last_nonfaulty_round, int rounds) {
    out.score = std::max(out.score, score);
    if (out.settled_round != kUnsettled)
      out.settled_round =
          last_nonfaulty_round < 0
              ? kUnsettled
              : std::max(out.settled_round, last_nonfaulty_round);
    out.rounds_executed = std::max(out.rounds_executed, rounds);
  }
};

std::size_t suppressed_messages(const RunRecord& rec) {
  std::size_t total = 0;
  for (std::size_t m = 0; m < rec.sent.size(); ++m)
    for (std::size_t i = 0; i < rec.sent[m].size(); ++i)
      total += static_cast<std::size_t>(
          rec.sent[m][i].minus(rec.delivered[m][i]).size());
  return total;
}

template <class P>
PatternScore ambiguity_score(const FipExchange& x, const P& act, int t,
                             int horizon,
                             const std::vector<std::vector<Value>>& prefs,
                             const FailurePattern& alpha) {
  Accumulator acc;
  for (const auto& pv : prefs) {
    Stepper<FipExchange, P> st(x, act, alpha, pv, t, {.max_rounds = horizon});
    const RunSummary s = run_to_end(st);
    double amb = 0;
    for (AgentId i : alpha.nonfaulty())
      amb += P::evidence_ambiguity(st.states()[static_cast<std::size_t>(i)],
                                   t);
    acc.add(amb, s.last_nonfaulty_round(), s.record.rounds);
  }
  return acc.out;
}

}  // namespace

PatternEvaluator make_pattern_evaluator(ObjectiveConfig cfg) {
  EBA_REQUIRE(cfg.n >= 1 && cfg.n <= kMaxAgents, "agent count out of range");
  if (cfg.prefs.empty()) cfg.prefs = all_preference_vectors(cfg.n);
  const int horizon = cfg.max_rounds > 0 ? cfg.max_rounds : cfg.t + 4;

  if (cfg.objective == SearchObjective::evidence_ambiguity) {
    EBA_REQUIRE(cfg.protocol == ProtocolKind::p_opt ||
                    cfg.protocol == ProtocolKind::p_opt_go,
                "evidence_ambiguity needs the full-information protocols");
    auto x = std::make_shared<FipExchange>(cfg.n);
    const auto evaluator = [&](auto p) -> PatternEvaluator {
      return [cfg = std::move(cfg), x, p,
              horizon](const FailurePattern& alpha) {
        return ambiguity_score(*x, *p, cfg.t, horizon, cfg.prefs, alpha);
      };
    };
    if (cfg.protocol == ProtocolKind::p_opt)
      return evaluator(std::make_shared<POpt>(cfg.n, cfg.t));
    return evaluator(std::make_shared<POptGo>(cfg.n, cfg.t));
  }

  RunDriver drive = make_driver(cfg.protocol, cfg.n, cfg.t, horizon);
  const bool round_objective =
      cfg.objective == SearchObjective::decision_round;
  return [cfg = std::move(cfg), drive = std::move(drive), horizon,
          round_objective](const FailurePattern& alpha) {
    Accumulator acc;
    for (const auto& pv : cfg.prefs) {
      const RunSummary s = drive(alpha, pv);
      const int last = s.last_nonfaulty_round();
      const double score =
          round_objective
              ? (last < 0 ? horizon + 1 : last)
              : static_cast<double>(suppressed_messages(s.record));
      acc.add(score, last, s.record.rounds);
    }
    return acc.out;
  };
}

}  // namespace eba
