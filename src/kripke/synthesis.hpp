// Round-by-round synthesis of concrete implementations from knowledge-based
// programs (paper §4; cf. the epistemic-synthesis direction discussed in §8).
//
// In a synchronous context the tests of P0/P1 at time m depend only on the
// system up to time m (the decide-1 test quantifies over *this* round's
// 0-decisions, which are themselves determined by tests about earlier
// times). The construction therefore proceeds inductively: build all runs up
// to time m, evaluate each agent's knowledge tests against the partial
// system, assign actions, advance one round. The result is a concrete
// protocol table on reachable local states — by construction an
// implementation of the program, which Theorems 6.5/6.6 predict equals
// P_min/P_basic in the corresponding contexts (verified in tests).
//
// Scaling (SynthesisOptions): the naive evaluation is world-by-world with a
// fresh common-knowledge BFS per test, which caps full contexts at n <= 4.
// Three observations make n = 5–6 and γ_fip contexts tractable, each gated
// by an option so the naive path stays available as a baseline
// (bench/bench_synthesis.cpp) and the equivalence of all option
// combinations is testable (tests/test_synthesis_opts.cpp):
//
//   * every knowledge test of P0/P1 is a function of the agent's
//     indistinguishability *class*, not of the (world, agent) pair — so each
//     test is evaluated once per class and shared by all member worlds
//     (`memoize`);
//   * the C_N(...) BFS result is a function of the reachable component: a
//     positive verdict transfers to every world reached (its reach set is a
//     subset that also passes), so components are explored once per round
//     per value, with early exit on a failed conjunct (`memoize`);
//   * worlds whose joint signature (per-agent classes, decision state,
//     jdecided-0 flag) coincides are indistinguishable to every test, so
//     only one representative per signature is evaluated and the actions are
//     copied to the duplicates (`dedup_worlds`);
//   * representatives are independent given the per-round tables, so their
//     evaluation — and the per-world state advance — fans out over the
//     shared worker pool of net/pool.hpp (`workers`).
//
// Each world's state advance is the §3 broadcast round the stepper runs
// (sim/stepper.hpp): stage_broadcast (µ once per sender),
// FailurePattern::filter_broadcast, apply_broadcast. One µ per sender is
// wrong for an exchange whose µ depends on the destination (E_auth), so the
// exchange must be a BroadcastExchange; the class static_asserts it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "failure/pattern.hpp"
#include "net/pool.hpp"
#include "sim/relabel.hpp"
#include "sim/simulator.hpp"
#include "sim/stepper.hpp"

namespace eba {

enum class KbpProgram { p0, p1 };

/// Ties world w to its renaming-orbit representative: world w equals world
/// `rep` relabeled by `perm` (pattern and preference vector both). A
/// representative has rep == its own index (perm is ignored there and may be
/// empty). Built by canonical_context_worlds (kripke/canonical_worlds.hpp).
struct WorldOrbit {
  std::size_t rep = 0;
  std::vector<AgentId> perm;
};

struct SynthesisOptions {
  /// Evaluate knowledge tests once per joint-signature class of worlds.
  bool dedup_worlds = true;
  /// Class-level memo of the P0 tests and component memo of the C_N BFS.
  bool memoize = true;
  /// Worker threads for per-round evaluation and state advance
  /// (0 = hardware concurrency, 1 = sequential). All settings produce
  /// identical results.
  int workers = 0;
};

/// Counters describing how much work the options saved (for benches/tests).
struct SynthesisStats {
  std::size_t worlds = 0;
  std::size_t world_rounds = 0;      ///< worlds × horizon
  std::size_t evaluated_rounds = 0;  ///< representative evaluations
  std::size_t common_bfs = 0;        ///< C_N component traversals
};

template <ExchangeProtocol X>
struct SynthesisResult {
  /// Synthesized action for every reachable local state.
  std::unordered_map<typename X::State, Action> table;
  /// Decision (if any) per world per agent, for spec checks.
  std::vector<std::vector<std::optional<Decision>>> decisions;
  SynthesisStats stats;
};

template <ExchangeProtocol X>
class KbpSynthesizer {
  static_assert(BroadcastExchange<X>,
                "KbpSynthesizer computes one message per sender; it requires "
                "a broadcast exchange");

 public:
  using State = typename X::State;
  using World = std::pair<FailurePattern, std::vector<Value>>;

  KbpSynthesizer(X x, int t, KbpProgram program, SynthesisOptions opt = {})
      : x_(std::move(x)), t_(t), program_(program), opt_(opt) {}

  [[nodiscard]] SynthesisResult<X> run(const std::vector<World>& worlds,
                                       int horizon) {
    return run(worlds, horizon, {});
  }

  /// Orbit-reuse run: when `orbits` is non-empty it must annotate every
  /// world with its renaming-orbit representative, and the world list must
  /// be closed under the annotated renamings (canonical_context_worlds
  /// guarantees both). Knowledge tests are then evaluated on representative
  /// worlds only; member actions and advanced states are obtained by
  /// relabeling the representative's (sim/relabel.hpp).
  ///
  /// Soundness is the equivariance induction: member initial states equal
  /// the relabeled representative initial states by construction, and if
  /// states correspond under the renamings at time m then
  /// indistinguishability classes correspond too (relabeling is a bijection
  /// on the closed world list), so every knowledge test — a function of the
  /// class and of equivariant propositions — agrees, the copied actions are
  /// exactly what evaluation would have assigned, and advancing the
  /// representative commutes with relabeling. The synthesized table and
  /// per-world decisions are identical to the annotation-free run
  /// (tests/test_relabel.cpp pins this; bench_synthesis gates the γ_fip(5)
  /// point's decisions).
  [[nodiscard]] SynthesisResult<X> run(const std::vector<World>& worlds,
                                       int horizon,
                                       const std::vector<WorldOrbit>& orbits) {
    const int n = x_.n();
    const auto nw = worlds.size();
    orbits_ = orbits.empty() ? nullptr : &orbits;
    orbit_reps_.clear();
    orbit_members_.clear();
    if (orbits_) {
      EBA_REQUIRE(orbits.size() == nw, "orbit annotation shape mismatch");
      for (std::size_t w = 0; w < nw; ++w) {
        const WorldOrbit& ob = orbits[w];
        if (ob.rep == w) {
          orbit_reps_.push_back(w);
        } else {
          EBA_REQUIRE(ob.rep < nw && orbits[ob.rep].rep == ob.rep &&
                          static_cast<int>(ob.perm.size()) == n,
                      "malformed orbit annotation");
          orbit_members_.push_back(w);
        }
      }
    }
    states_.clear();
    decisions_.assign(nw, std::vector<std::optional<Decision>>(
                              static_cast<std::size_t>(n)));
    nonfaulty_.clear();
    inits_.clear();
    last_actions_.assign(nw, std::vector<Action>(static_cast<std::size_t>(n)));
    for (const auto& [alpha, inits] : worlds) {
      EBA_REQUIRE(alpha.n() == n && static_cast<int>(inits.size()) == n,
                  "world shape mismatch");
      std::vector<State> row;
      row.reserve(static_cast<std::size_t>(n));
      for (AgentId i = 0; i < n; ++i)
        row.push_back(x_.initial_state(i, inits[static_cast<std::size_t>(i)]));
      states_.push_back(std::move(row));
      nonfaulty_.push_back(alpha.nonfaulty());
      inits_.push_back(inits);
    }
    bfs_count_.store(0, std::memory_order_relaxed);

    SynthesisResult<X> result;
    result.decisions.assign(nw, std::vector<std::optional<Decision>>(
                                    static_cast<std::size_t>(n)));
    result.stats.worlds = nw;
    for (int m = 0; m < horizon; ++m) {
      build_classes();
      assign_actions(m, result.stats);
      // The synthesized table only needs representative worlds: a duplicate
      // world's states and actions are copies of its representative's, so
      // its records are byte-identical (and every world is its own
      // representative when dedup is off). Decisions are per world. Under
      // orbit reuse, member worlds' states are *relabelings* of their
      // representative's — distinct local states the table must still
      // cover — so every world is recorded there.
      if (orbits_) {
        for (std::size_t w = 0; w < nw; ++w)
          for (AgentId i = 0; i < n; ++i)
            record(result, states_[w][static_cast<std::size_t>(i)],
                   actions_[w][static_cast<std::size_t>(i)]);
      } else {
        for (const std::size_t w : reps_)
          for (AgentId i = 0; i < n; ++i)
            record(result, states_[w][static_cast<std::size_t>(i)],
                   actions_[w][static_cast<std::size_t>(i)]);
      }
      for (std::size_t w = 0; w < nw; ++w) {
        for (AgentId i = 0; i < n; ++i) {
          const Action a = actions_[w][static_cast<std::size_t>(i)];
          if (a.is_decide()) {
            decisions_[w][static_cast<std::size_t>(i)] =
                Decision{a.value(), m + 1};
            result.decisions[w][static_cast<std::size_t>(i)] =
                Decision{a.value(), m + 1};
          }
        }
      }
      advance_round(worlds, m);
      // actions_ is rebuilt from scratch next round; swapping hands the
      // current actions to last_actions_ without reallocating either.
      last_actions_.swap(actions_);
      result.stats.world_rounds += nw;
    }
    result.stats.common_bfs = bfs_count_.load(std::memory_order_relaxed);
    return result;
  }

 private:
  static constexpr std::size_t kGrain = 64;  ///< parallel_for chunk size

  /// Indistinguishability classes at the current time: for each agent, the
  /// set of worlds sharing its local state.
  void build_classes() {
    const int n = x_.n();
    classes_.assign(static_cast<std::size_t>(n), {});
    class_of_.assign(states_.size(),
                     std::vector<int>(static_cast<std::size_t>(n)));
    for (AgentId i = 0; i < n; ++i) {
      std::unordered_map<State, int> ids;
      ids.reserve(states_.size());
      for (std::size_t w = 0; w < states_.size(); ++w) {
        const State& s = states_[w][static_cast<std::size_t>(i)];
        auto [it, fresh] = ids.try_emplace(s, static_cast<int>(ids.size()));
        if (fresh) classes_[static_cast<std::size_t>(i)].emplace_back();
        class_of_[w][static_cast<std::size_t>(i)] = it->second;
        classes_[static_cast<std::size_t>(i)][static_cast<std::size_t>(it->second)]
            .push_back(static_cast<int>(w));
      }
    }
  }

  [[nodiscard]] const std::vector<int>& cls(std::size_t w, AgentId i) const {
    return classes_[static_cast<std::size_t>(i)]
                   [static_cast<std::size_t>(class_of_[w][static_cast<std::size_t>(i)])];
  }

  [[nodiscard]] bool decided(std::size_t w, AgentId i) const {
    return decisions_[w][static_cast<std::size_t>(i)].has_value();
  }

  /// jdecided_j = 0 at the current time in world w: j chose decide(0) in the
  /// previous round.
  [[nodiscard]] bool any_jdecided0(std::size_t w, int m) const {
    if (m == 0) return false;
    for (const Action& a : last_actions_[w])
      if (a.decides(Value::zero)) return true;
    return false;
  }

  /// The φ conjuncts of C_N(t-faulty ∧ no-decided_N(1-v) ∧ ∃v) local to one
  /// world (the t-faulty part is the reach-wide intersection test).
  [[nodiscard]] bool common_pred(std::size_t w, Value v) const {
    bool some_v = false;
    for (Value x : inits_[w]) some_v = some_v || x == v;
    if (!some_v) return false;
    const Value other = opposite(v);
    for (AgentId j : nonfaulty_[w]) {
      const auto& d = decisions_[w][static_cast<std::size_t>(j)];
      if (d && d->value == other) return false;
    }
    return true;
  }

  /// C_N(t-faulty ∧ no-decided_N(1-v) ∧ ∃v) over the partial system — the
  /// naive evaluation (full reach set, then the checks), kept verbatim as
  /// the pre-optimization baseline that `memoize` is measured against.
  [[nodiscard]] bool common_condition_uncached(std::size_t w0, Value v) const {
    const int n = x_.n();
    bfs_count_.fetch_add(1, std::memory_order_relaxed);
    // BFS over worlds through ~_j edges, j nonfaulty at the source world.
    std::vector<char> queued(states_.size(), 0);
    std::vector<int> frontier;
    std::vector<int> reached;
    auto expand = [&](int from) {
      for (AgentId j : nonfaulty_[static_cast<std::size_t>(from)])
        for (int w : cls(static_cast<std::size_t>(from), j))
          if (!queued[static_cast<std::size_t>(w)]) {
            queued[static_cast<std::size_t>(w)] = 1;
            frontier.push_back(w);
            reached.push_back(w);
          }
    };
    expand(static_cast<int>(w0));
    while (!frontier.empty()) {
      const int w = frontier.back();
      frontier.pop_back();
      expand(w);
    }
    // t-faulty: some t-set A is faulty at every reached world; equivalently
    // the intersection of the faulty sets over reached worlds has size >= t.
    AgentSet common_faulty = AgentSet::all(n);
    for (int w : reached)
      common_faulty = common_faulty.intersected(
          nonfaulty_[static_cast<std::size_t>(w)].complement(n));
    if (common_faulty.size() < t_) return false;
    for (int w : reached)
      if (!common_pred(static_cast<std::size_t>(w), v)) return false;
    return true;
  }

  /// Memoized C_N evaluation: one traversal per reachable component per
  /// round per value. A positive verdict is propagated to every reached
  /// world (its reach set is a subset whose conjuncts all hold and whose
  /// faulty intersection only grows); a failed conjunct aborts the
  /// traversal early and also condemns the failing world itself.
  [[nodiscard]] bool common_condition_cached(std::size_t w0, Value v) const {
    auto& memo = common_memo_[static_cast<std::size_t>(to_int(v))];
    {
      const signed char cached =
          memo[w0].load(std::memory_order_relaxed);
      if (cached >= 0) return cached == 1;
    }
    const int n = x_.n();
    bfs_count_.fetch_add(1, std::memory_order_relaxed);
    std::vector<char> queued(states_.size(), 0);
    std::vector<int> frontier;
    std::vector<int> reached;
    AgentSet common_faulty = AgentSet::all(n);
    bool result = true;
    // Checks a world the moment it is first reached; false return = abort.
    auto consider = [&](int w2) {
      if (!common_pred(static_cast<std::size_t>(w2), v)) {
        // w2 is in its own reach set, so its verdict is false too.
        memo[static_cast<std::size_t>(w2)].store(0, std::memory_order_relaxed);
        return false;
      }
      common_faulty = common_faulty.intersected(
          nonfaulty_[static_cast<std::size_t>(w2)].complement(n));
      return common_faulty.size() >= t_;  // monotone: can only shrink
    };
    auto expand = [&](int from) {
      for (AgentId j : nonfaulty_[static_cast<std::size_t>(from)])
        for (int w : cls(static_cast<std::size_t>(from), j))
          if (!queued[static_cast<std::size_t>(w)]) {
            queued[static_cast<std::size_t>(w)] = 1;
            if (!consider(w)) return false;
            frontier.push_back(w);
            reached.push_back(w);
          }
      return true;
    };
    result = expand(static_cast<int>(w0));
    while (result && !frontier.empty()) {
      const int w = frontier.back();
      frontier.pop_back();
      result = expand(w);
    }
    memo[w0].store(result ? 1 : 0, std::memory_order_relaxed);
    if (result)
      for (int w : reached)
        memo[static_cast<std::size_t>(w)].store(1, std::memory_order_relaxed);
    return result;
  }

  /// K_i C_N(...): all of the agent's indistinguishable worlds satisfy the
  /// common condition. Class-memoized when enabled.
  [[nodiscard]] bool knows_common(std::size_t w, AgentId i, Value v) const {
    if (!opt_.memoize) {
      for (int w2 : cls(w, i))
        if (!common_condition_uncached(static_cast<std::size_t>(w2), v))
          return false;
      return true;
    }
    const std::size_t c = static_cast<std::size_t>(
        class_of_[w][static_cast<std::size_t>(i)]);
    auto& cell = class_common_[static_cast<std::size_t>(to_int(v))]
                              [static_cast<std::size_t>(i)][c];
    const signed char cached = cell.load(std::memory_order_relaxed);
    if (cached >= 0) return cached == 1;
    bool all = true;
    for (int w2 : cls(w, i))
      if (!common_condition_cached(static_cast<std::size_t>(w2), v)) {
        all = false;
        break;
      }
    cell.store(all ? 1 : 0, std::memory_order_relaxed);
    return all;
  }

  /// K_i(∨_j jdecided_j = 0). Class-memoized when enabled.
  [[nodiscard]] bool knows_jd0(std::size_t w, AgentId i, int m) const {
    if (!opt_.memoize) {
      for (int w2 : cls(w, i))
        if (!any_jdecided0(static_cast<std::size_t>(w2), m)) return false;
      return true;
    }
    return class_jd0_[static_cast<std::size_t>(i)][static_cast<std::size_t>(
               class_of_[w][static_cast<std::size_t>(i)])] != 0;
  }

  /// Joint world signature for dedup: two worlds with equal per-agent
  /// classes (⇒ equal states), equal decision state and equal jdecided-0
  /// flag are assigned identical actions by every test.
  [[nodiscard]] bool same_signature(std::size_t a, std::size_t b) const {
    if (jd0_[a] != jd0_[b] || class_of_[a] != class_of_[b]) return false;
    for (std::size_t i = 0; i < decisions_[a].size(); ++i) {
      const auto& da = decisions_[a][i];
      const auto& db = decisions_[b][i];
      if (da.has_value() != db.has_value()) return false;
      if (da && da->value != db->value) return false;
    }
    return true;
  }

  /// Fills actions_ (and the stage bookkeeping) for round m+1. Buffers are
  /// members so round r+1 reuses round r's allocations.
  void assign_actions(int m, SynthesisStats& stats) {
    const int n = x_.n();
    const std::size_t nw = states_.size();
    actions_.resize(nw);
    assigned_.resize(nw);
    for (std::size_t w = 0; w < nw; ++w) {
      actions_[w].assign(static_cast<std::size_t>(n), Action{});
      assigned_[w].assign(static_cast<std::size_t>(n), 0);
    }

    jd0_.resize(nw);
    for (std::size_t w = 0; w < nw; ++w)
      jd0_[w] = any_jdecided0(w, m) ? 1 : 0;

    // Representatives: one world per joint signature among the eligible
    // worlds — all worlds normally, orbit representatives under orbit reuse
    // (members get relabeled copies, not evaluations; rep_of_ is only
    // meaningful for eligible worlds then). Duplicates inherit their
    // representative's action row.
    const std::size_t nelig = orbits_ ? orbit_reps_.size() : nw;
    auto eligible = [&](std::size_t idx) {
      return orbits_ ? orbit_reps_[idx] : idx;
    };
    reps_.clear();
    rep_of_.resize(nw);
    if (opt_.dedup_worlds) {
      std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
      for (std::size_t e = 0; e < nelig; ++e) {
        const std::size_t w = eligible(e);
        std::uint64_t h = jd0_[w] ? 0x9e3779b97f4a7c15ull : 0x2545f4914f6cdd1dull;
        for (int c : class_of_[w])
          h = (h ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ull;
        for (const auto& d : decisions_[w])
          h = (h ^ (d ? 2u + static_cast<unsigned>(to_int(d->value)) : 1u)) *
              0x100000001b3ull;
        auto& bucket = buckets[h];
        std::size_t rep = nw;
        for (std::size_t cand : bucket)
          if (same_signature(cand, w)) {
            rep = cand;
            break;
          }
        if (rep == nw) {
          bucket.push_back(w);
          reps_.push_back(w);
          rep = w;
        }
        rep_of_[w] = rep;
      }
    } else {
      reps_.resize(nelig);
      for (std::size_t e = 0; e < nelig; ++e) {
        const std::size_t w = eligible(e);
        reps_[e] = w;
        rep_of_[w] = w;
      }
    }
    stats.evaluated_rounds += reps_.size();

    if (opt_.memoize) {
      // Eager class tables for the P0 decide-0 test.
      class_jd0_.assign(static_cast<std::size_t>(n), {});
      for (AgentId i = 0; i < n; ++i) {
        auto& row = class_jd0_[static_cast<std::size_t>(i)];
        row.assign(classes_[static_cast<std::size_t>(i)].size(), 1);
        for (std::size_t c = 0; c < row.size(); ++c)
          for (int w2 : classes_[static_cast<std::size_t>(i)][c])
            if (!jd0_[static_cast<std::size_t>(w2)]) {
              row[c] = 0;
              break;
            }
      }
      if (program_ == KbpProgram::p1) {
        for (auto v : {0, 1}) {
          reset_tristate(common_memo_[static_cast<std::size_t>(v)], nw);
          auto& per_agent = class_common_[static_cast<std::size_t>(v)];
          per_agent.resize(static_cast<std::size_t>(n));
          for (AgentId i = 0; i < n; ++i)
            reset_tristate(per_agent[static_cast<std::size_t>(i)],
                           classes_[static_cast<std::size_t>(i)].size());
        }
      }
    }

    // Stage 1: noop-if-decided, the common-knowledge lines of P1, and the
    // decide-0 line. All of these depend only on rounds < m+1.
    parallel_for(opt_.workers, reps_.size(), kGrain,
                 [&](std::size_t begin, std::size_t end) {
                   for (std::size_t r = begin; r < end; ++r)
                     eval_stage1(reps_[r], m);
                 });
    copy_rows_to_duplicates();
    // Orbit members need their stage-1 rows before anything reads peer
    // worlds' decide(0) actions: both the stage-2 memo tables below and the
    // sequential non-memoized stage-2 reads range over all worlds.
    copy_rows_to_orbit_members();

    // Stage 2: the decide-1 line. "deciding_j = 0 in round m+1" is now fully
    // determined by stage 1 (stage 2 itself never assigns decide(0), so its
    // reads of other worlds' actions are order-independent).
    if (opt_.memoize) {
      has_decider0_.resize(nw);
      for (std::size_t w = 0; w < nw; ++w) {
        char any = 0;
        for (const Action& a : actions_[w])
          if (a.decides(Value::zero)) {
            any = 1;
            break;
          }
        has_decider0_[w] = any;
      }
      class_no_decider0_.assign(static_cast<std::size_t>(n), {});
      for (AgentId i = 0; i < n; ++i) {
        auto& row = class_no_decider0_[static_cast<std::size_t>(i)];
        row.assign(classes_[static_cast<std::size_t>(i)].size(), 1);
        for (std::size_t c = 0; c < row.size(); ++c)
          for (int w2 : classes_[static_cast<std::size_t>(i)][c])
            if (has_decider0_[static_cast<std::size_t>(w2)]) {
              row[c] = 0;
              break;
            }
      }
    }
    // Without the memo tables, stage 2 reads peer worlds' stage-2 rows
    // directly (its writes are never decide(0), so the *order* is free),
    // which would race with parallel writers — run it sequentially then.
    parallel_for(opt_.memoize ? opt_.workers : 1, reps_.size(), kGrain,
                 [&](std::size_t begin, std::size_t end) {
                   for (std::size_t r = begin; r < end; ++r)
                     eval_stage2(reps_[r]);
                 });
    copy_rows_to_duplicates();
    copy_rows_to_orbit_members();
  }

  void eval_stage1(std::size_t w, int m) {
    const int n = x_.n();
    for (AgentId i = 0; i < n; ++i) {
      auto set = [&](Action a) {
        actions_[w][static_cast<std::size_t>(i)] = a;
        assigned_[w][static_cast<std::size_t>(i)] = 1;
      };
      if (decided(w, i)) {
        set(Action::noop());
        continue;
      }
      if (program_ == KbpProgram::p1) {
        if (knows_common(w, i, Value::zero)) {
          set(Action::decide(Value::zero));
          continue;
        }
        if (knows_common(w, i, Value::one)) {
          set(Action::decide(Value::one));
          continue;
        }
      }
      const bool init0 = inits_[w][static_cast<std::size_t>(i)] == Value::zero;
      if (init0 || knows_jd0(w, i, m)) set(Action::decide(Value::zero));
    }
  }

  void eval_stage2(std::size_t w) {
    const int n = x_.n();
    for (AgentId i = 0; i < n; ++i) {
      if (assigned_[w][static_cast<std::size_t>(i)]) continue;
      bool knows_no_decider = true;
      if (opt_.memoize) {
        knows_no_decider =
            class_no_decider0_[static_cast<std::size_t>(i)]
                              [static_cast<std::size_t>(class_of_[w][static_cast<std::size_t>(i)])] != 0;
      } else {
        for (int w2 : cls(w, i)) {
          for (AgentId j = 0; j < n && knows_no_decider; ++j)
            knows_no_decider =
                !actions_[static_cast<std::size_t>(w2)][static_cast<std::size_t>(j)]
                     .decides(Value::zero);
          if (!knows_no_decider) break;
        }
      }
      actions_[w][static_cast<std::size_t>(i)] =
          knows_no_decider ? Action::decide(Value::one) : Action::noop();
    }
  }

  void copy_rows_to_duplicates() {
    if (!opt_.dedup_worlds) return;
    auto copy = [&](std::size_t w) {
      if (rep_of_[w] != w) {
        actions_[w] = actions_[rep_of_[w]];
        assigned_[w] = assigned_[rep_of_[w]];
      }
    };
    // Under orbit reuse only orbit representatives carry signatures.
    if (orbits_) {
      for (std::size_t w : orbit_reps_) copy(w);
    } else {
      for (std::size_t w = 0; w < rep_of_.size(); ++w) copy(w);
    }
  }

  /// The equivariance copy: member world w == π · rep, so agent π(i) in w
  /// does what agent i does in rep.
  void copy_rows_to_orbit_members() {
    if (!orbits_) return;
    const int n = x_.n();
    parallel_for(
        opt_.workers, orbit_members_.size(), kGrain,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t k = begin; k < end; ++k) {
            const std::size_t w = orbit_members_[k];
            const WorldOrbit& ob = (*orbits_)[w];
            for (AgentId i = 0; i < n; ++i) {
              const auto pi = static_cast<std::size_t>(
                  ob.perm[static_cast<std::size_t>(i)]);
              actions_[w][pi] = actions_[ob.rep][static_cast<std::size_t>(i)];
              assigned_[w][pi] = assigned_[ob.rep][static_cast<std::size_t>(i)];
            }
          }
        });
  }

  /// Advances every evaluated world by one §3 round through the shared
  /// broadcast pieces: the stepper's µ staging (stage_broadcast), the
  /// pattern's mask filter (FailurePattern::filter_broadcast), and the
  /// stepper's δ loop (apply_broadcast).
  void advance_round(const std::vector<World>& worlds, int m) {
    const int n = x_.n();
    const auto un = static_cast<std::size_t>(n);
    using Message = typename X::Message;
    const std::size_t count = orbits_ ? orbit_reps_.size() : worlds.size();
    parallel_for(
        opt_.workers, count, kGrain,
        [&](std::size_t begin, std::size_t end) {
          // Chunk-local scratch, reused per world instead of reallocated:
          // one message per sender (all-⊥ between worlds), each receiver's
          // sender mask, the (unused) delivery log, and δ's scratch.
          std::vector<std::optional<Message>> by_sender(un);
          std::vector<AgentSet> received(un);
          std::vector<AgentSet> delivered(un);
          BroadcastScratch<X> scratch;
          for (std::size_t e = begin; e < end; ++e) {
            const std::size_t w = orbits_ ? orbit_reps_[e] : e;
            const AgentSet senders =
                stage_broadcast(x_, std::span<const State>(states_[w]),
                                actions_[w],
                                [&](AgentId i, Message&& msg) {
                                  by_sender[static_cast<std::size_t>(i)] =
                                      std::move(msg);
                                })
                    .senders;
            worlds[w].first.filter_broadcast(m, senders, received, delivered);
            apply_broadcast(x_, std::span<State>(states_[w]), actions_[w],
                            by_sender, received, scratch);
            for (auto& msg : by_sender) msg.reset();
          }
        });
    // Member states are the renamed representative states — one relabel
    // per agent instead of a message exchange + update per world.
    if (orbits_) {
      parallel_for(
          opt_.workers, orbit_members_.size(), kGrain,
          [&](std::size_t begin, std::size_t end) {
            for (std::size_t k = begin; k < end; ++k) {
              const std::size_t w = orbit_members_[k];
              const WorldOrbit& ob = (*orbits_)[w];
              const Renaming ren(ob.perm);
              for (AgentId i = 0; i < n; ++i)
                states_[w][static_cast<std::size_t>(
                    ob.perm[static_cast<std::size_t>(i)])] =
                    relabel_state(
                        states_[ob.rep][static_cast<std::size_t>(i)], ren);
            }
          });
    }
  }

  void record(SynthesisResult<X>& result, const State& s, Action a) {
    auto [it, fresh] = result.table.try_emplace(s, a);
    EBA_REQUIRE(fresh || it->second == a,
                "knowledge tests assigned two actions to one local state");
  }

  static void reset_tristate(std::vector<std::atomic<signed char>>& cells,
                             std::size_t count) {
    cells = std::vector<std::atomic<signed char>>(count);
    for (auto& cell : cells) cell.store(-1, std::memory_order_relaxed);
  }

  X x_;
  int t_;
  KbpProgram program_;
  SynthesisOptions opt_;
  /// Orbit annotations of the current run (null = no orbit reuse), with the
  /// world indices split into representatives and members.
  const std::vector<WorldOrbit>* orbits_ = nullptr;
  std::vector<std::size_t> orbit_reps_;
  std::vector<std::size_t> orbit_members_;
  std::vector<std::vector<State>> states_;
  std::vector<std::vector<std::optional<Decision>>> decisions_;
  std::vector<AgentSet> nonfaulty_;
  std::vector<std::vector<Value>> inits_;
  std::vector<std::vector<Action>> last_actions_;
  std::vector<std::vector<std::vector<int>>> classes_;  ///< [agent][class]->worlds
  std::vector<std::vector<int>> class_of_;              ///< [world][agent]

  // Per-round scratch (rebuilt in assign_actions; buffers reused).
  std::vector<std::vector<Action>> actions_;     ///< round actions per world
  std::vector<std::vector<char>> assigned_;      ///< stage-1 assignment mask
  std::vector<char> jd0_;                        ///< any_jdecided0 per world
  std::vector<std::size_t> reps_;                ///< signature representatives
  std::vector<std::size_t> rep_of_;              ///< world -> representative
  std::vector<std::vector<char>> class_jd0_;     ///< [agent][class]
  std::vector<char> has_decider0_;               ///< per world, stage 2
  std::vector<std::vector<char>> class_no_decider0_;  ///< [agent][class]
  /// Tri-state memos (-1 unknown / 0 false / 1 true); atomics because
  /// representative evaluation races benignly (all writers store the same
  /// deterministic value).
  mutable std::array<std::vector<std::atomic<signed char>>, 2> common_memo_;
  mutable std::array<std::vector<std::vector<std::atomic<signed char>>>, 2>
      class_common_;
  mutable std::atomic<std::size_t> bfs_count_{0};
};

}  // namespace eba
