// The instance-oriented run engine (paper §3).
//
// `Stepper<X, P>` advances the n agent states of ONE agreement instance
// round by round, in place: a run costs O(n) state, not O(rounds · n),
// unless a `TraceSink` opts in (`simulate()` in simulator.hpp attaches a
// materializing one to recover the classic `Run<X>`).
//
// A round is split the way the paper splits a protocol: the action
// protocol picks every agent's action (`begin_round()`), the information
// exchange moves µ's messages through the adversary, and δ updates the
// states (`finish_round()`, the one place that does round accounting and
// appends to the record). Only the middle part varies: `step()` is the
// in-memory transport (µ staged by the helpers below, filtered by the
// instance's failure pattern — the §3 semantics verbatim), and net/ moves
// the staged messages as bytes through a bus slot.
//
// Broadcast exchanges (`X::kBroadcast`: µ ignores the destination) stage
// one message per sender and complete through the sender-major overload,
// whose δ loop (apply_broadcast) builds no n² inbox and, where δ is a join
// (E_fip), joins the messages every receiver heard once per round. Every
// other exchange stages µ per edge and completes through the inbox overload.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "exchange/exchange.hpp"
#include "failure/pattern.hpp"

namespace eba {

/// What an adaptive adversary observes when a round is staged: the actions
/// every agent is about to perform, plus the decide bookkeeping derived from
/// them. `round` is the pattern round index m (= the stepper's current
/// time), so drops recorded at round m filter exactly the messages staged
/// here — the broadcasts of protocol round m+1.
struct StagedRound {
  int round = 0;
  int t = 0;
  /// actions[i]: agent i's staged action this round.
  std::span<const Action> actions;
  /// Agents staging their *first* decide this round.
  AgentSet deciding_now;
  /// Agents decided in any round up to and including this one.
  AgentSet decided;
};

/// Online adversary callback, invoked by `Stepper::begin_round()` after the
/// round's actions are fixed and before any message moves. The hook may add
/// drops to the instance's pattern at rounds >= staged.round; both step()
/// and external transports (which must re-read `pattern()` after
/// begin_round — see net/workload.hpp) then filter the
/// staged messages with the updated pattern. sim/adaptive.hpp wraps
/// `AdversaryStrategy` objects into hooks and enforces the SO(t)/GO(t)
/// budget after every invocation.
using AdversaryHook = std::function<void(const StagedRound&, FailurePattern&)>;

/// Exchanges whose µ is destination-independent declare
/// `static constexpr bool kBroadcast = true`. The engine then computes one
/// message per sender per round; for every other exchange it evaluates
/// µ(s, a, dest) per destination, so a future non-broadcast exchange cannot
/// silently inherit broadcast fan-out.
template <class X>
concept BroadcastExchange = requires {
  { X::kBroadcast } -> std::convertible_to<bool>;
} && bool(X::kBroadcast);

/// What µ staging produced for one round: the round's Prop 8.1 accounting
/// (a message addressed to its own sender is free) and, for a broadcast
/// round, the senders whose message is not ⊥.
struct StagedMessages {
  AgentSet senders;
  std::size_t bits = 0;
  std::size_t messages = 0;
};

/// µ for one broadcast round — the one broadcast staging loop in the tree,
/// shared by Stepper::step(), the wire path (net/workload.hpp) and the KBP
/// synthesizer (kripke/synthesis.hpp). Hands each non-⊥ µ(s_i, a_i) to
/// `emit(i, Message&&)` as soon as it is computed, in sender order, so the
/// wire path encodes each message while it is hot instead of holding all n;
/// each message counts once per other agent.
template <ExchangeProtocol X, class Emit>
  requires BroadcastExchange<X>
inline StagedMessages stage_broadcast(const X& x,
                                      std::span<const typename X::State> states,
                                      std::span<const Action> actions,
                                      Emit&& emit) {
  const std::size_t others = states.size() - 1;
  StagedMessages out;
  for (std::size_t i = 0; i < states.size(); ++i) {
    std::optional<typename X::Message> m =
        x.message(states[i], actions[i], /*dest=*/0);
    if (!m) continue;
    const auto from = static_cast<AgentId>(i);
    out.senders.insert(from);
    out.bits += others * x.message_bits(*m);
    out.messages += others;
    emit(from, std::move(*m));
  }
  return out;
}

/// µ for one per-destination round — the one per-edge staging loop, shared
/// by Stepper::step() and the wire path (net/workload.hpp). Hands each
/// non-⊥ µ(s_i, a_i, j) to `emit(i, j, Message&&)`, sender major; each
/// message to another agent counts once.
template <ExchangeProtocol X, class Emit>
inline StagedMessages stage_per_destination(
    const X& x, std::span<const typename X::State> states,
    std::span<const Action> actions, Emit&& emit) {
  const auto n = static_cast<AgentId>(states.size());
  StagedMessages out;
  for (AgentId i = 0; i < n; ++i)
    for (AgentId j = 0; j < n; ++j) {
      const auto ui = static_cast<std::size_t>(i);
      std::optional<typename X::Message> m =
          x.message(states[ui], actions[ui], j);
      if (!m) continue;
      if (j != i) {
        out.bits += x.message_bits(*m);
        out.messages += 1;
      }
      emit(i, j, std::move(*m));
    }
  return out;
}

/// Broadcast exchanges whose δ factors through a join (associative,
/// commutative, idempotent) of the delivered messages: E_fip (`Join`,
/// join(), update_joined()), not E_basic, whose δ counts init1 messages.
template <class X>
concept JoinDelta = BroadcastExchange<X> && requires { typename X::Join; };

/// apply_broadcast's scratch, owned by its caller and reused across rounds.
template <class X>
struct BroadcastScratch {
  std::vector<std::optional<typename X::Message>> row;  ///< all-⊥ between uses
};
template <JoinDelta X>
struct BroadcastScratch<X> {
  typename X::Join join;
};

/// δ for one broadcast round — the one broadcast δ loop in the tree,
/// shared by the stepper's sender-major finish_round and by the KBP
/// synthesizer (kripke/synthesis.hpp). Agent j's δ sees by_sender[i] for
/// each i ∈ received[j] (the masks filter_broadcast fills; none may be ⊥
/// for a JoinDelta exchange, which throws on one). A JoinDelta exchange
/// joins the messages of C, the senders every receiver heard (under SO(t),
/// every nonfaulty one), once per round; each receiver takes the join plus
/// the rest it heard. This throws exactly when the inbox form of δ would:
/// messages conflict iff two of them do, and the join adds to a receiver's
/// row only its own message, µ of the state δ extends. Declared inline to
/// get the compiler's in-class inlining budget.
template <ExchangeProtocol X>
inline void apply_broadcast(
    const X& x, std::span<typename X::State> states,
    std::span<const Action> actions,
    std::span<const std::optional<typename X::Message>> by_sender,
    std::span<const AgentSet> received, BroadcastScratch<X>& scratch) {
  const std::size_t n = states.size();
  if constexpr (JoinDelta<X>) {
    AgentSet common = AgentSet::all(static_cast<int>(n));
    for (const AgentSet& r : received.first(n)) common = common.intersected(r);
    if (common.size() < 2) common = AgentSet{};  // joining one saves nothing
    else x.join(scratch.join, by_sender, common);
    for (std::size_t j = 0; j < n; ++j)
      x.update_joined(states[j], actions[j], received[j],
                      common.empty() ? nullptr : &scratch.join, by_sender,
                      received[j].minus(common));
  } else {
    auto& row = scratch.row;
    row.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      const AgentSet from = received[j];
      for (AgentId i : from) {
        const auto ui = static_cast<std::size_t>(i);
        row[ui] = by_sender[ui];
      }
      x.update(states[j], actions[j], row);
      for (AgentId i : from) row[static_cast<std::size_t>(i)].reset();
    }
  }
}

/// Opt-in observer of the in-place engine: receives the state vector at
/// time 0 and after every completed round. `MaterializingSink` recovers the
/// seed simulator's full `states[m][i]` history for tests and examples.
template <ExchangeProtocol X>
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// `states[i]` is agent i's state at `time` (0 = initial).
  virtual void on_states(int time,
                         std::span<const typename X::State> states) = 0;
};

template <ExchangeProtocol X>
class MaterializingSink final : public TraceSink<X> {
 public:
  void on_states(int /*time*/,
                 std::span<const typename X::State> states) override {
    states_.emplace_back(states.begin(), states.end());
  }

  /// states()[m][i]: agent i's state at time m, exactly as the seed
  /// simulator materialized it.
  [[nodiscard]] std::vector<std::vector<typename X::State>>& states() {
    return states_;
  }

 private:
  std::vector<std::vector<typename X::State>> states_;
};

struct StepperOptions {
  int max_rounds = 0;                 ///< 0 = use t+4
  bool stop_when_all_decided = true;  ///< stop early once every agent decided
};

/// A mid-run cut of one instance, sufficient to resume it exactly where it
/// stopped: the completed-round count, every agent's state at that time, the
/// record accumulated so far and the wire accounting. Produced/consumed by
/// net/checkpoint.hpp; the decide bookkeeping (decided set, undecided
/// counter) is recomputed from the record, not stored.
template <ExchangeProtocol X>
struct ResumePoint {
  int time = 0;
  std::vector<typename X::State> states;
  RunRecord record;
  std::size_t bits_sent = 0;
  std::size_t messages_sent = 0;
};

template <ExchangeProtocol X, class P>
class Stepper {
 public:
  using State = typename X::State;
  using Message = typename X::Message;

  /// `x` and `act` are borrowed and must outlive the stepper; the pattern
  /// and preferences are copied so an instance owns its inputs (the
  /// workload engine keeps thousands of steppers alive at once).
  Stepper(const X& x, const P& act, FailurePattern alpha,
          std::vector<Value> inits, int t, const StepperOptions& opt = {},
          TraceSink<X>* sink = nullptr)
      : x_(&x),
        act_(&act),
        alpha_(std::move(alpha)),
        t_(t),
        max_rounds_(opt.max_rounds > 0 ? opt.max_rounds : t + 4),
        stop_when_all_decided_(opt.stop_when_all_decided),
        sink_(sink),
        n_(x.n()),
        undecided_(x.n()),
        decided_(static_cast<std::size_t>(x.n()), false) {
    EBA_REQUIRE(alpha_.n() == n_, "pattern/exchange agent count mismatch");
    EBA_REQUIRE(static_cast<int>(inits.size()) == n_, "inits size mismatch");
    record_.n = n_;
    record_.t = t_;
    record_.inits = std::move(inits);
    record_.nonfaulty = alpha_.nonfaulty();
    states_.reserve(static_cast<std::size_t>(n_));
    for (AgentId i = 0; i < n_; ++i)
      states_.push_back(
          x.initial_state(i, record_.inits[static_cast<std::size_t>(i)]));
    if (sink_) sink_->on_states(0, states_);
  }

  /// Resumes an instance from a mid-run cut (see ResumePoint): the stepper
  /// continues from `resume.time` exactly as if it had executed the recorded
  /// rounds itself — the differential tests in tests/test_recovery.cpp pin
  /// restored-and-continued runs record-for-record against uninterrupted
  /// ones. The decide bookkeeping is rebuilt by scanning the record for
  /// first decides, so a resume point cannot smuggle in inconsistent
  /// counters.
  Stepper(const X& x, const P& act, FailurePattern alpha,
          ResumePoint<X>&& resume, int t, const StepperOptions& opt = {},
          TraceSink<X>* sink = nullptr)
      : x_(&x),
        act_(&act),
        alpha_(std::move(alpha)),
        t_(t),
        max_rounds_(opt.max_rounds > 0 ? opt.max_rounds : t + 4),
        stop_when_all_decided_(opt.stop_when_all_decided),
        sink_(sink),
        n_(x.n()),
        time_(resume.time),
        start_time_(resume.time),
        undecided_(x.n()),
        decided_(static_cast<std::size_t>(x.n()), false),
        states_(std::move(resume.states)),
        record_(std::move(resume.record)),
        bits_sent_(resume.bits_sent),
        messages_sent_(resume.messages_sent) {
    EBA_REQUIRE(alpha_.n() == n_, "pattern/exchange agent count mismatch");
    EBA_REQUIRE(record_.n == n_ && record_.t == t_,
                "resume record does not match the context");
    EBA_REQUIRE(record_.rounds == time_ && time_ >= 0 && time_ <= max_rounds_,
                "resume time does not match the recorded rounds");
    EBA_REQUIRE(static_cast<int>(states_.size()) == n_,
                "resume states must cover every agent");
    EBA_REQUIRE(static_cast<int>(record_.inits.size()) == n_,
                "resume record inits size mismatch");
    for (int m = 0; m < time_; ++m)
      for (AgentId i = 0; i < n_; ++i)
        if (record_.actions[static_cast<std::size_t>(m)]
                           [static_cast<std::size_t>(i)]
                               .is_decide() &&
            !decided_[static_cast<std::size_t>(i)]) {
          decided_[static_cast<std::size_t>(i)] = true;
          decided_set_.insert(i);
          --undecided_;
        }
    if (sink_) sink_->on_states(time_, states_);
  }

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int t() const { return t_; }
  /// Rounds completed so far (= the current time).
  [[nodiscard]] int time() const { return time_; }
  [[nodiscard]] int max_rounds() const { return max_rounds_; }
  [[nodiscard]] bool stop_when_all_decided() const {
    return stop_when_all_decided_;
  }
  /// The time this stepper started at: 0 for a fresh instance, the resume
  /// point's time for a restored one.
  [[nodiscard]] int start_time() const { return start_time_; }
  /// Running count of agents that have not yet decided; maintained
  /// incrementally instead of rescanning all n agents every round.
  [[nodiscard]] int undecided() const { return undecided_; }
  [[nodiscard]] std::size_t bits_sent() const { return bits_sent_; }
  [[nodiscard]] std::size_t messages_sent() const { return messages_sent_; }
  [[nodiscard]] const std::vector<State>& states() const { return states_; }
  [[nodiscard]] const FailurePattern& pattern() const { return alpha_; }

  /// Installs an online adversary (see AdversaryHook above). Must be set
  /// before the stepper runs its first round — time 0 for a fresh instance,
  /// the resume time for a restored one (crash recovery reinstalls the hook
  /// from the rolled-back strategy; net/workload.hpp) — because replacing it
  /// mid-run would make the realized pattern unattributable to one strategy.
  void set_adversary_hook(AdversaryHook hook) {
    EBA_REQUIRE(time_ == start_time_ && !in_round_,
                "adversary hook must be installed before the first round");
    adversary_ = std::move(hook);
  }

  /// True between begin_round() and finish_round(). Checkpoints may only be
  /// cut at round boundaries (net/checkpoint.hpp asserts this).
  [[nodiscard]] bool in_round() const { return in_round_; }

  /// True when the instance will run no further round: the horizon is
  /// exhausted or (under early stopping) every agent has decided.
  [[nodiscard]] bool done() const {
    if (in_round_) return false;
    if (time_ >= max_rounds_) return true;
    return stop_when_all_decided_ && undecided_ == 0;
  }

  /// Runs one full round in memory: begin_round(), µ staged once per
  /// sender (broadcast) or per edge, delivery filtered by the instance's
  /// failure pattern, finish_round(). Returns false (and does nothing) when
  /// the instance is done.
  bool step() {
    const std::vector<Action>* actions = begin_round();
    if (!actions) return false;
    const auto un = static_cast<std::size_t>(n_);
    const std::span<const State> states(states_);
    std::vector<AgentSet> sent(un);
    std::vector<AgentSet> delivered(un);
    if constexpr (BroadcastExchange<X>) {
      by_sender_.resize(un);
      const StagedMessages staged =
          stage_broadcast(*x_, states, *actions, [&](AgentId i, Message&& m) {
            by_sender_[static_cast<std::size_t>(i)] = std::move(m);
          });
      for (AgentId i : staged.senders)
        sent[static_cast<std::size_t>(i)] =
            AgentSet::all(n_).minus(AgentSet{i});
      received_.resize(un);
      alpha_.filter_broadcast(time_, staged.senders, received_, delivered);
      finish_round(std::span<const std::optional<Message>>(by_sender_),
                   received_, std::move(sent), std::move(delivered),
                   staged.bits, staged.messages);
      for (auto& m : by_sender_) m.reset();
    } else {
      inbox_.resize(un);
      for (auto& row : inbox_) row.assign(un, std::nullopt);
      const StagedMessages staged = stage_per_destination(
          *x_, states, *actions, [&](AgentId i, AgentId j, Message&& m) {
            const auto ui = static_cast<std::size_t>(i);
            if (j != i) sent[ui].insert(j);
            // Self-delivery of µ(s, a, self) always succeeds.
            if (!alpha_.delivered(time_, i, j)) return;
            inbox_[static_cast<std::size_t>(j)][ui] = std::move(m);
            if (j != i) delivered[ui].insert(j);
          });
      finish_round(inbox_, std::move(sent), std::move(delivered), staged.bits,
                   staged.messages);
    }
    return true;
  }

  // -- Split-phase interface (step() and external transports) ---------------

  /// Starts a round: computes every agent's action and the decide
  /// bookkeeping. Returns nullptr when the instance is done. After a
  /// non-null return the caller must complete the round with one
  /// finish_round() call before anything else touches the stepper:
  /// begin_round(), step(), take_record(), take_states() and
  /// checkpoint_stepper() all refuse a stepper that is mid-round.
  [[nodiscard]] const std::vector<Action>* begin_round() {
    EBA_REQUIRE(!in_round_, "begin_round called twice without finish_round");
    if (done()) return nullptr;
    actions_.assign(static_cast<std::size_t>(n_), Action::noop());
    AgentSet deciding_now;
    for (AgentId i = 0; i < n_; ++i) {
      const Action a = (*act_)(states_[static_cast<std::size_t>(i)]);
      actions_[static_cast<std::size_t>(i)] = a;
      if (a.is_decide() && !decided_[static_cast<std::size_t>(i)]) {
        decided_[static_cast<std::size_t>(i)] = true;
        decided_set_.insert(i);
        deciding_now.insert(i);
        --undecided_;
      }
    }
    if (adversary_)
      adversary_(StagedRound{.round = time_,
                             .t = t_,
                             .actions = actions_,
                             .deciding_now = deciding_now,
                             .decided = decided_set_},
                 alpha_);
    in_round_ = true;
    return &actions_;
  }

  /// Completes a round whose messages were moved by step() or an external
  /// transport: applies δ with the filtered inboxes (inbox[to][from]) and
  /// appends the transport's sent/delivered logs and accounting to the
  /// record.
  void finish_round(
      std::span<const std::vector<std::optional<Message>>> inbox,
      std::vector<AgentSet> sent, std::vector<AgentSet> delivered,
      std::size_t bits, std::size_t messages) {
    EBA_REQUIRE(in_round_, "finish_round without begin_round");
    EBA_REQUIRE(static_cast<int>(inbox.size()) == n_, "inbox size mismatch");
    bits_sent_ += bits;
    messages_sent_ += messages;
    for (AgentId i = 0; i < n_; ++i)
      x_->update(states_[static_cast<std::size_t>(i)],
                 actions_[static_cast<std::size_t>(i)],
                 std::span<const std::optional<Message>>(
                     inbox[static_cast<std::size_t>(i)]));
    record_.sent.push_back(std::move(sent));
    record_.delivered.push_back(std::move(delivered));
    end_round();
  }

  /// Sender-major completion for broadcast exchanges: by_sender[from] is
  /// the one message `from` broadcast (nullopt = ⊥) and received[to] the
  /// senders whose message reached `to` (self included). Equivalent to the
  /// matrix overload with inbox[to][from] = by_sender[from] for from ∈
  /// received[to], but never materializes the n×n inbox (apply_broadcast).
  void finish_round(std::span<const std::optional<Message>> by_sender,
                    std::span<const AgentSet> received,
                    std::vector<AgentSet> sent, std::vector<AgentSet> delivered,
                    std::size_t bits, std::size_t messages)
    requires BroadcastExchange<X>
  {
    EBA_REQUIRE(in_round_, "finish_round without begin_round");
    EBA_REQUIRE(static_cast<int>(by_sender.size()) == n_ &&
                    static_cast<int>(received.size()) == n_,
                "broadcast round size mismatch");
    bits_sent_ += bits;
    messages_sent_ += messages;
    apply_broadcast(*x_, std::span<State>(states_), actions_, by_sender,
                    received, delta_);
    record_.sent.push_back(std::move(sent));
    record_.delivered.push_back(std::move(delivered));
    end_round();
  }

  /// The record accumulated so far; `record().rounds` is kept in sync after
  /// every completed round, so this is valid mid-run too.
  [[nodiscard]] const RunRecord& record() const { return record_; }
  [[nodiscard]] RunRecord take_record() {
    EBA_REQUIRE(!in_round_, "take_record mid-round");
    return std::move(record_);
  }
  [[nodiscard]] std::vector<State> take_states() {
    EBA_REQUIRE(!in_round_, "take_states mid-round");
    return std::move(states_);
  }

 private:
  void end_round() {
    record_.actions.push_back(std::move(actions_));
    actions_.clear();
    time_ += 1;
    record_.rounds = time_;
    in_round_ = false;
    if (sink_) sink_->on_states(time_, states_);
  }

  const X* x_;
  const P* act_;
  FailurePattern alpha_;
  int t_;
  int max_rounds_;
  bool stop_when_all_decided_;
  TraceSink<X>* sink_;
  int n_;
  int time_ = 0;
  int start_time_ = 0;  ///< construction time (nonzero for restored instances)
  int undecided_;
  bool in_round_ = false;
  AdversaryHook adversary_;
  AgentSet decided_set_;  ///< same info as decided_, in the hook's currency
  std::vector<bool> decided_;
  std::vector<State> states_;
  std::vector<Action> actions_;  ///< the in-flight round's actions
  /// Per-destination rounds' n×n inbox, reused across rounds.
  std::vector<std::vector<std::optional<Message>>> inbox_;
  /// Broadcast rounds: one message per sender, each receiver's sender mask,
  /// and δ's scratch (apply_broadcast). Reused.
  std::vector<std::optional<Message>> by_sender_;
  std::vector<AgentSet> received_;
  BroadcastScratch<X> delta_;
  RunRecord record_;
  std::size_t bits_sent_ = 0;
  std::size_t messages_sent_ = 0;
};

}  // namespace eba
