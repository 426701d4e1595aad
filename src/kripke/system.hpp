// Interpreted systems and epistemic operators (paper §2, §4).
//
// An InterpretedSystem materializes I = (R_{E,F,P}, π) for a finite set of
// runs (exhaustively enumerated or sampled adversaries × preference
// vectors), and evaluates the knowledge operators:
//
//   K_i φ   — φ holds at every same-time point where i has the same state
//   E_S φ   — every agent in the (indexical) set S knows φ
//   C_S φ   — φ holds at every point reachable by chains of ~_j steps with
//             j drawn from S at the source point (the fixed-point
//             characterization of common knowledge)
//
// Runs are simulated WITHOUT early stopping so every run covers the same
// horizon; synchrony means indistinguishability only links points at equal
// times, which the equivalence-class index exploits.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "failure/canonical.hpp"
#include "failure/generators.hpp"
#include "kripke/partition.hpp"
#include "net/pool.hpp"
#include "sim/relabel.hpp"
#include "sim/simulator.hpp"

namespace eba {

struct Point {
  int run = 0;
  int time = 0;
  friend bool operator==(Point, Point) = default;
};

/// How add_all_runs produces each orbit's member runs.
enum class RunReuse {
  /// Simulate every (pattern, preference) pair — the pre-reuse baseline,
  /// kept as the oracle the relabel path is pinned bit-identical against
  /// (tests/test_relabel.cpp, bench/bench_scale.cpp).
  resimulate,
  /// Simulate one representative per (orbit × preference class) and
  /// relabel everything else (sim/relabel.hpp). Produces the same full run
  /// set in the same order, bit for bit, with ~orbit-size × class-size
  /// fewer simulations.
  relabel,
};

struct AddAllRunsOptions {
  RunReuse reuse = RunReuse::relabel;
  /// Worker threads for the relabel fan-out (0 = hardware concurrency).
  int workers = 0;
};

template <ExchangeProtocol X, class P>
class InterpretedSystem {
 public:
  InterpretedSystem(X x, P act, int t, int horizon)
      : x_(std::move(x)), act_(std::move(act)), t_(t), horizon_(horizon) {
    EBA_REQUIRE(horizon >= 1, "horizon must be positive");
  }

  /// Adds the unique run generated by (alpha, inits).
  void add_run(const FailurePattern& alpha, const std::vector<Value>& inits) {
    EBA_REQUIRE(!finalized_, "system already finalized");
    runs_.push_back(simulate(
        x_, act_, alpha, inits, t_,
        {.max_rounds = horizon_, .stop_when_all_decided = false}));
  }

  /// Adds every run of the context: all preference vectors × all
  /// adversaries of cfg.model (SO(t), or GO(t) via go_config) with drops
  /// in the first `cfg.rounds` rounds.
  ///
  /// The adversary space is walked one renaming orbit at a time
  /// (failure/canonical.hpp) and every orbit is expanded back to all of its
  /// members: knowledge is NOT invariant under *dropping* orbit members —
  /// removing a run removes a point an agent must consider possible and
  /// manufactures spurious knowledge — so epistemic model checks need the
  /// full run set. Only per-run-invariant sweeps (spec checks, decision
  /// rounds) may consume bare representatives with multiplicities
  /// (failure/orbit_sweep.hpp).
  ///
  /// Under the default RunReuse::relabel the expansion is the run-level
  /// symmetry reduction: per orbit, one simulation per preference class of
  /// the stabilizer quotient, then
  ///   run(π·rep, p) = relabel(run(rep, π⁻¹·p), π)
  ///                 = relabel(relabel(run(rep, c), σ), π)
  /// where c is the class representative of π⁻¹·p and σ a stabilizer
  /// element with σ·c = π⁻¹·p. Equivariance makes both equalities
  /// bit-identical to simulating (π·rep, p) directly, and members × masks
  /// are emitted in exactly the resimulate order, so the finalized Kripke
  /// structure is unchanged (pinned in tests/test_relabel.cpp and gated in
  /// bench_scale). The relabel fan-out parallelizes over net/pool.hpp
  /// workers; runs land in pre-sized slots, so the result stays
  /// deterministic regardless of worker count.
  void add_all_runs(const EnumerationConfig& cfg,
                    const AddAllRunsOptions& opt = {}) {
    EBA_REQUIRE(!finalized_, "system already finalized");
    const auto prefs = all_preference_vectors(cfg.n);
    if (opt.reuse == RunReuse::resimulate) {
      enumerate_canonical_adversaries(
          cfg, [&](const FailurePattern& rep, std::uint64_t /*multiplicity*/) {
            expand_orbit(rep, [&](const FailurePattern& alpha) {
              for (const auto& p : prefs) add_run(alpha, p);
              return true;
            });
            return true;
          });
      return;
    }
    const std::size_t nprefs = prefs.size();
    const StepperOptions sopt{.max_rounds = horizon_,
                              .stop_when_all_decided = false};
    std::vector<std::optional<Run<X>>> base(nprefs);
    std::vector<Renaming> member_rens;
    std::vector<std::vector<AgentId>> member_invs;
    enumerate_canonical_adversaries(
        cfg, [&](const FailurePattern& rep, std::uint64_t /*multiplicity*/) {
          // One simulation per preference class; stabilizer relabels fill
          // the rest of the cube. Class representatives are lex-minimal, so
          // the ascending mask walk meets each class's base run first.
          const PreferenceQuotient q = preference_quotient(rep);
          for (auto& b : base) b.reset();
          for (std::size_t mask = 0; mask < nprefs; ++mask) {
            const std::uint64_t c = q.classes[q.class_of[mask]].mask;
            if (mask == c)
              base[mask] = simulate(x_, act_, rep, prefs[mask], t_, sopt);
            else
              base[mask] = relabel_run(*base[static_cast<std::size_t>(c)],
                                       q.sigma[mask]);
          }
          member_rens.clear();
          member_invs.clear();
          expand_orbit_perms(
              rep, [&](const FailurePattern&, const std::vector<AgentId>& pi) {
                // Renamings compile once per orbit member and serve every
                // preference mask of the fan-out below.
                member_rens.emplace_back(pi);
                member_invs.push_back(member_rens.back().inverse());
                return true;
              });
          const std::size_t off = runs_.size();
          runs_.resize(off + member_rens.size() * nprefs);
          parallel_for(
              opt.workers, member_rens.size() * nprefs, /*grain=*/nprefs,
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t s = lo; s < hi; ++s) {
                  const std::size_t mi = s / nprefs;
                  const std::size_t mask = s % nprefs;
                  const std::uint64_t src =
                      AgentSet(mask).permuted(member_invs[mi]).bits();
                  runs_[off + s] = relabel_run(
                      *base[static_cast<std::size_t>(src)], member_rens[mi]);
                }
              });
          return true;
        });
  }

  /// Builds the indistinguishability index: one StatePartition of the runs
  /// per (time, agent). Call once after adding runs.
  void finalize() {
    EBA_REQUIRE(!finalized_, "system already finalized");
    EBA_REQUIRE(!runs_.empty(), "no runs");
    const int n = x_.n();
    const auto runs = runs_.size();
    partitions_.clear();
    partitions_.reserve(static_cast<std::size_t>((horizon_ + 1) * n));
    // Hash one time's states in one pass over the runs, so each run's
    // states are read together rather than once per agent.
    std::vector<std::size_t> hashes(static_cast<std::size_t>(n) * runs);
    const std::hash<typename X::State> hash;
    for (int m = 0; m <= horizon_; ++m) {
      for (std::size_t r = 0; r < runs; ++r)
        for (AgentId i = 0; i < n; ++i)
          hashes[static_cast<std::size_t>(i) * runs + r] =
              hash(state({static_cast<int>(r), m}, i));
      for (AgentId i = 0; i < n; ++i)
        partitions_.emplace_back(
            num_runs(),
            [&](int r) -> const typename X::State& { return state({r, m}, i); },
            [&](int r) {
              return hashes[static_cast<std::size_t>(i) * runs +
                            static_cast<std::size_t>(r)];
            });
    }
    finalized_ = true;
  }

  [[nodiscard]] int num_runs() const { return static_cast<int>(runs_.size()); }
  [[nodiscard]] int horizon() const { return horizon_; }
  [[nodiscard]] int n() const { return x_.n(); }
  [[nodiscard]] int t() const { return t_; }
  [[nodiscard]] const Run<X>& run(int r) const {
    return runs_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] const std::vector<Run<X>>& runs() const { return runs_; }
  /// True iff both finalized systems induce the same indistinguishability
  /// structure: identical class ids and class membership at every
  /// (time, agent). This is the "identical Kripke structure, class for
  /// class" oracle for the run-reuse path.
  [[nodiscard]] bool same_partition(const InterpretedSystem& other) const {
    EBA_REQUIRE(finalized_ && other.finalized_,
                "finalize() both systems first");
    return partitions_ == other.partitions_;
  }
  [[nodiscard]] const X& exchange() const { return x_; }
  [[nodiscard]] const P& action_protocol() const { return act_; }

  [[nodiscard]] const typename X::State& state(Point pt, AgentId i) const {
    return runs_[static_cast<std::size_t>(pt.run)]
        .states[static_cast<std::size_t>(pt.time)][static_cast<std::size_t>(i)];
  }

  // ---- Atomic propositions (the interpretation π) ----

  [[nodiscard]] Value init(Point pt, AgentId i) const {
    return runs_[static_cast<std::size_t>(pt.run)]
        .record.inits[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] bool exists_init(Point pt, Value v) const {
    for (Value x : runs_[static_cast<std::size_t>(pt.run)].record.inits)
      if (x == v) return true;
    return false;
  }
  [[nodiscard]] bool nonfaulty(Point pt, AgentId i) const {
    return runs_[static_cast<std::size_t>(pt.run)].record.nonfaulty.contains(i);
  }
  [[nodiscard]] AgentSet nonfaulty_set(Point pt) const {
    return runs_[static_cast<std::size_t>(pt.run)].record.nonfaulty;
  }
  /// Action performed by i in round time+1 (noop beyond the recorded run).
  [[nodiscard]] Action action_at(Point pt, AgentId i) const {
    const auto& rec = runs_[static_cast<std::size_t>(pt.run)].record;
    if (pt.time >= rec.rounds) return Action::noop();
    return rec.actions[static_cast<std::size_t>(pt.time)]
                      [static_cast<std::size_t>(i)];
  }
  /// decided_i at this point (decisions performed in rounds <= time).
  [[nodiscard]] std::optional<Value> decided(Point pt, AgentId i) const {
    const auto d = runs_[static_cast<std::size_t>(pt.run)].record.decision(i);
    if (d && d->round <= pt.time) return d->value;
    return std::nullopt;
  }
  /// jdecided_i = v: i decided v in round `time` exactly.
  [[nodiscard]] bool jdecided(Point pt, AgentId i, Value v) const {
    if (pt.time == 0) return false;
    return action_at({pt.run, pt.time - 1}, i).decides(v);
  }
  /// deciding_i = v: i is performing decide(v) in round time+1.
  [[nodiscard]] bool deciding(Point pt, AgentId i, Value v) const {
    return !decided(pt, i) && action_at(pt, i).decides(v);
  }

  // ---- Epistemic operators ----

  /// Runs indistinguishable from pt.run for agent i at pt.time (including
  /// pt.run itself).
  [[nodiscard]] std::span<const int> indistinguishable_runs(AgentId i,
                                                          Point pt) const {
    EBA_REQUIRE(finalized_, "finalize() the system first");
    const StatePartition& p =
        partitions_[static_cast<std::size_t>(pt.time * n() + i)];
    return p.members(p.class_of(pt.run));
  }

  /// K_i φ at pt.
  template <class Pred>
  [[nodiscard]] bool knows(AgentId i, Point pt, const Pred& phi) const {
    for (int r : indistinguishable_runs(i, pt))
      if (!phi(Point{r, pt.time})) return false;
    return true;
  }

  /// B_i^N φ = K_i(i ∈ N ⇒ φ) (paper §7).
  template <class Pred>
  [[nodiscard]] bool believes_nonfaulty(AgentId i, Point pt,
                                        const Pred& phi) const {
    for (int r : indistinguishable_runs(i, pt)) {
      const Point q{r, pt.time};
      if (nonfaulty(q, i) && !phi(q)) return false;
    }
    return true;
  }

  /// E_S φ at pt, with S indexical.
  template <class SetFn, class Pred>
  [[nodiscard]] bool everyone_knows(const SetFn& S, Point pt,
                                    const Pred& phi) const {
    for (AgentId j : S(pt))
      if (!knows(j, pt, phi)) return false;
    return true;
  }

  /// C_S φ at pt: φ holds at every point reachable from pt by one or more
  /// ~_j steps, with j ∈ S evaluated at each step's source point.
  template <class SetFn, class Pred>
  [[nodiscard]] bool common_knowledge(const SetFn& S, Point pt,
                                      const Pred& phi) const {
    EBA_REQUIRE(finalized_, "finalize() the system first");
    std::vector<char> queued(runs_.size(), 0);
    std::vector<int> frontier;
    auto expand = [&](int from_run) {
      const Point q{from_run, pt.time};
      for (AgentId j : S(q)) {
        for (int r : indistinguishable_runs(j, q)) {
          if (queued[static_cast<std::size_t>(r)]) continue;
          queued[static_cast<std::size_t>(r)] = 1;
          frontier.push_back(r);
        }
      }
    };
    expand(pt.run);
    while (!frontier.empty()) {
      const int r = frontier.back();
      frontier.pop_back();
      if (!phi(Point{r, pt.time})) return false;
      expand(r);
    }
    return true;
  }

  /// The indexical set N of nonfaulty agents.
  [[nodiscard]] auto nonfaulty_indexical() const {
    return [this](Point q) { return nonfaulty_set(q); };
  }

 private:
  X x_;
  P act_;
  int t_;
  int horizon_;
  bool finalized_ = false;
  std::vector<Run<X>> runs_;
  /// partitions_[time * n + agent]: the runs grouped by that agent's state
  std::vector<StatePartition> partitions_;
};

}  // namespace eba
