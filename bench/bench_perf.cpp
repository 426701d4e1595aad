// Performance microbenchmarks (Prop 7.9 — P_opt is polynomial time).
//
// google-benchmark timings for the building blocks of the polynomial-time
// optimal FIP — graph merge, cone construction, view extraction, the
// common/cond tests, view inference over a whole cone, one agent's P_opt
// action, E_fip's broadcast δ — and end-to-end run simulation for all three
// protocols, as a function of n. Near-polynomial scaling in n is the
// empirical counterpart of Prop 7.9.
#include <benchmark/benchmark.h>

#include "action/p_basic.hpp"
#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "bench_util.hpp"
#include "graph/knowledge.hpp"
#include "net/serialize.hpp"
#include "sim/simulator.hpp"
#include "sim/stepper.hpp"
#include "stats/rng.hpp"

namespace eba::bench {
namespace {

/// A realistic mid-run FIP state: t silent faulty agents, everyone else
/// chattering, observed at time `rounds`.
FipState sample_state(int n, int t, int rounds) {
  const auto alpha = silent_agents_pattern(
      n, AgentSet::all(n).minus(AgentSet::all(n - t)), rounds + 1);
  auto noop = [](const FipState&) { return Action::noop(); };
  SimulateOptions opt;
  opt.max_rounds = rounds;
  opt.stop_when_all_decided = false;
  auto run = simulate(FipExchange(n), noop, alpha, all_ones(n), t, opt);
  return run.states.back()[0];
}

/// Agent 0's state at time `rounds` of a seeded random SO(t) run (each
/// faulty sender's message dropped with probability 0.35).
FipState seeded_state(int n, int t, int rounds, std::uint64_t seed) {
  Rng rng(seed);
  const auto alpha = sample_adversary(n, t, rounds + 1, 0.35, rng);
  auto noop = [](const FipState&) { return Action::noop(); };
  SimulateOptions opt;
  opt.max_rounds = rounds;
  opt.stop_when_all_decided = false;
  auto run = simulate(FipExchange(n), noop, alpha, sample_preferences(n, rng),
                      t, opt);
  return run.states.back()[0];
}

void BM_GraphMerge(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = n / 4;
  const FipState a = sample_state(n, t, t + 2);
  const FipState b = sample_state(n, t, t + 1);
  for (auto _ : state) {
    CommGraph g = a.graph();
    g.merge(b.graph());
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GraphMerge)->Arg(8)->Arg(16)->Arg(32);

void BM_ConeConstruction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = n / 4;
  const FipState s = sample_state(n, t, t + 2);
  for (auto _ : state) {
    Cone cone(s.graph(), 0, s.graph().time());
    benchmark::DoNotOptimize(cone);
  }
}
BENCHMARK(BM_ConeConstruction)->Arg(8)->Arg(16)->Arg(32);

void BM_ExtractView(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = n / 4;
  const FipState s = sample_state(n, t, t + 2);
  const int m = s.graph().time() - 1;
  // Agent 1 is nonfaulty in sample_state, so (1, m) is in the cone.
  for (auto _ : state) {
    CommGraph view = extract_view(s.graph(), 1, m);
    benchmark::DoNotOptimize(view);
  }
}
BENCHMARK(BM_ExtractView)->Arg(8)->Arg(16)->Arg(32);

void BM_CommonTest(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = n / 4;
  const FipState s = sample_state(n, t, t + 2);
  const POpt p(n, t);
  p.infer_actions(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        POpt::common_test(s.graph(), 0, Value::one, t, s.inferred));
  }
}
BENCHMARK(BM_CommonTest)->Arg(8)->Arg(16)->Arg(32);

void BM_Cond1Test(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = n / 4;
  const FipState s = sample_state(n, t, t + 2);
  const POpt p(n, t);
  p.infer_actions(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(POpt::cond1_test(s.graph(), 0, s.inferred));
  }
}
BENCHMARK(BM_Cond1Test)->Arg(8)->Arg(16)->Arg(32);

// View inference from scratch: d(j, m) for every node of the agent's cone,
// each evaluated on its reconstructed view (the per-node work behind Prop
// 7.9). The table is cleared every iteration; the thread's inference
// scratch is warm after the first, as in a long-running worker.
void BM_InferActions(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = n / 4;
  const FipState s = seeded_state(n, t, t + 2, 20261017);
  const POpt p(n, t);
  for (auto _ : state) {
    s.inferred = ActionTable{};
    p.infer_actions(s);
    benchmark::DoNotOptimize(s.inferred);
  }
}
BENCHMARK(BM_InferActions)->Arg(8)->Arg(16)->Arg(32);

// One agent's P_opt action at time 1, as a round asks for it: a fresh state
// (empty inferred table, graph copied in place) is built with the timer
// paused, so each iteration pays the call's own knowledge derivation, view
// inference and table growth, and nothing carried from the last iteration
// but the thread's scratch.
void BM_POptAction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = n / 4;
  const FipState s = seeded_state(n, t, 1, 20261018);
  const POpt p(n, t);
  FipState fresh = s;
  for (auto _ : state) {
    state.PauseTiming();
    fresh = s;
    fresh.inferred = ActionTable{};
    state.ResumeTiming();
    benchmark::DoNotOptimize(p(fresh));
  }
}
BENCHMARK(BM_POptAction)->Arg(8)->Arg(32);

void BM_GraphSerialize(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const FipState s = sample_state(n, n / 4, n / 4 + 2);
  for (auto _ : state) {
    Writer w;
    encode_graph(w, s.graph());
    benchmark::DoNotOptimize(w.take());
  }
}
BENCHMARK(BM_GraphSerialize)->Arg(8)->Arg(16)->Arg(32);

void BM_GraphDeserialize(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const FipState s = sample_state(n, n / 4, n / 4 + 2);
  Writer w;
  encode_graph(w, s.graph());
  const Bytes payload = w.take();
  for (auto _ : state) {
    Reader r(payload);
    benchmark::DoNotOptimize(decode_graph(r));
  }
}
BENCHMARK(BM_GraphDeserialize)->Arg(8)->Arg(32);

// The broadcast δ layer alone: apply_broadcast over round 2 of a seeded
// E_fip/P_opt instance under SO(t), drop density 0.3 as in e2ebench. The
// states are restored with the timer paused, each made its graph's sole
// owner (a copy shares the stepper's graph, and by_sender holds them too),
// so only δ is timed, writing in place as on the wire path; a shared graph
// would make δ clone it first.
void BM_BroadcastDeltaFip(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = n / 4;
  const auto un = static_cast<std::size_t>(n);
  Rng rng(20261017);
  const FipExchange x(n);
  const POpt p(n, t);
  Stepper<FipExchange, POpt> s(x, p, sample_adversary(n, t, t + 2, 0.3, rng),
                               sample_preferences(n, rng), t);
  s.step();
  const std::vector<Action>& actions = *s.begin_round();
  std::vector<std::optional<FipExchange::Message>> by_sender(un);
  const AgentSet senders =
      stage_broadcast(x, std::span<const FipState>(s.states()), actions,
                      [&](AgentId i, FipExchange::Message&& m) {
                        by_sender[static_cast<std::size_t>(i)] = std::move(m);
                      })
          .senders;
  std::vector<AgentSet> received(un);
  std::vector<AgentSet> delivered(un);
  s.pattern().filter_broadcast(s.time(), senders, received, delivered);
  std::vector<FipState> states;
  BroadcastScratch<FipExchange> scratch;
  for (auto _ : state) {
    state.PauseTiming();
    states = s.states();
    for (FipState& st : states) (void)st.writable_graph();
    state.ResumeTiming();
    apply_broadcast(x, states, actions, by_sender, received, scratch);
    benchmark::DoNotOptimize(states.data());
  }
}
BENCHMARK(BM_BroadcastDeltaFip)->Arg(8)->Arg(32);

template <class MakeDriver>
void run_full(benchmark::State& state, const MakeDriver& make) {
  const int n = static_cast<int>(state.range(0));
  const int t = n / 4 >= 1 ? n / 4 : 1;
  const auto drive = make(n, t);
  const auto alpha = hidden_chain_pattern(n, t, t + 3);
  const auto prefs = one_zero(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(drive(alpha, prefs));
  }
}

void BM_FullRunPMin(benchmark::State& state) {
  run_full(state, [](int n, int t) { return make_min_driver(n, t); });
}
BENCHMARK(BM_FullRunPMin)->Arg(8)->Arg(16)->Arg(32);

void BM_FullRunPBasic(benchmark::State& state) {
  run_full(state, [](int n, int t) { return make_basic_driver(n, t); });
}
BENCHMARK(BM_FullRunPBasic)->Arg(8)->Arg(16)->Arg(32);

void BM_FullRunPOpt(benchmark::State& state) {
  run_full(state, [](int n, int t) { return make_fip_driver(n, t); });
}
// n = 32 joined the sweep once the packed graph representation made it
// affordable; the trajectory now covers the same range as the other benches.
BENCHMARK(BM_FullRunPOpt)->Arg(8)->Arg(16)->Arg(24)->Arg(32);

}  // namespace
}  // namespace eba::bench

BENCHMARK_MAIN();
