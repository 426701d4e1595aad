// Unit tests for the information-exchange protocols E_min, E_basic, E_fip:
// µ message selection, δ state updates, and the EBA-context constraints.
#include <gtest/gtest.h>

#include "exchange/basic.hpp"
#include "exchange/exchange.hpp"
#include "exchange/fip.hpp"
#include "exchange/min.hpp"

namespace eba {
namespace {

template <class M>
std::vector<std::optional<M>> empty_inbox(int n) {
  return std::vector<std::optional<M>>(static_cast<std::size_t>(n));
}

static_assert(ExchangeProtocol<MinExchange>);
static_assert(ExchangeProtocol<BasicExchange>);
static_assert(ExchangeProtocol<FipExchange>);

TEST(MinExchangeTest, InitialState) {
  const MinExchange x(3);
  const MinState s = x.initial_state(1, Value::one);
  EXPECT_EQ(s.time, 0);
  EXPECT_EQ(s.init, Value::one);
  EXPECT_FALSE(s.decided);
  EXPECT_FALSE(s.jd);
}

TEST(MinExchangeTest, SendsOnlyOnDecision) {
  const MinExchange x(3);
  const MinState s = x.initial_state(0, Value::zero);
  EXPECT_FALSE(x.message(s, Action::noop(), 1).has_value());
  EXPECT_EQ(x.message(s, Action::decide(Value::zero), 1), Value::zero);
  EXPECT_EQ(x.message(s, Action::decide(Value::one), 2), Value::one);
  EXPECT_EQ(x.message_bits(Value::zero), 1u);
}

TEST(MinExchangeTest, UpdateSetsDecidedAndJd) {
  const MinExchange x(3);
  MinState s = x.initial_state(0, Value::one);
  auto inbox = empty_inbox<Value>(3);
  inbox[2] = Value::zero;
  x.update(s, Action::noop(), inbox);
  EXPECT_EQ(s.time, 1);
  EXPECT_EQ(s.jd, Value::zero);
  EXPECT_FALSE(s.decided);

  x.update(s, Action::decide(Value::zero), empty_inbox<Value>(3));
  EXPECT_EQ(s.time, 2);
  EXPECT_EQ(s.decided, Value::zero);
  EXPECT_FALSE(s.jd) << "jd resets when nothing is heard";
}

TEST(MinExchangeTest, JdPrefersZeroOnConflict) {
  const MinExchange x(3);
  MinState s = x.initial_state(0, Value::one);
  auto inbox = empty_inbox<Value>(3);
  inbox[1] = Value::one;
  inbox[2] = Value::zero;
  x.update(s, Action::noop(), inbox);
  EXPECT_EQ(s.jd, Value::zero);
}

TEST(MinExchangeTest, DoubleDecisionThrows) {
  const MinExchange x(2);
  MinState s = x.initial_state(0, Value::one);
  x.update(s, Action::decide(Value::one), empty_inbox<Value>(2));
  EXPECT_THROW(x.update(s, Action::decide(Value::one), empty_inbox<Value>(2)),
               std::logic_error);
}

TEST(BasicExchangeTest, UndecidedOneBroadcastsInitOne) {
  const BasicExchange x(3);
  const BasicState one = x.initial_state(0, Value::one);
  EXPECT_EQ(x.message(one, Action::noop(), 1), BasicMsg::init1);
  const BasicState zero = x.initial_state(0, Value::zero);
  EXPECT_FALSE(x.message(zero, Action::noop(), 1).has_value());
  EXPECT_EQ(x.message(one, Action::decide(Value::one), 1), BasicMsg::decide1);
  EXPECT_EQ(x.message_bits(BasicMsg::init1), 2u);
}

TEST(BasicExchangeTest, StopsInitOneAfterJdOrDecision) {
  const BasicExchange x(3);
  BasicState s = x.initial_state(0, Value::one);
  auto inbox = empty_inbox<BasicMsg>(3);
  inbox[1] = BasicMsg::decide1;
  x.update(s, Action::noop(), inbox);
  EXPECT_EQ(s.jd, Value::one);
  EXPECT_FALSE(x.message(s, Action::noop(), 1).has_value());
}

TEST(BasicExchangeTest, CountsOnesIncludingSelf) {
  const BasicExchange x(4);
  BasicState s = x.initial_state(0, Value::one);
  auto inbox = empty_inbox<BasicMsg>(4);
  inbox[0] = BasicMsg::init1;  // own broadcast comes back
  inbox[2] = BasicMsg::init1;
  inbox[3] = BasicMsg::init1;
  x.update(s, Action::noop(), inbox);
  EXPECT_EQ(s.ones, 3);
}

TEST(BasicExchangeTest, OnesResetOnDecisionMessage) {
  const BasicExchange x(4);
  BasicState s = x.initial_state(0, Value::one);
  auto inbox = empty_inbox<BasicMsg>(4);
  inbox[1] = BasicMsg::init1;
  inbox[2] = BasicMsg::decide0;
  x.update(s, Action::noop(), inbox);
  EXPECT_EQ(s.ones, 0) << "#1 is ignored once a decision message arrives";
  EXPECT_EQ(s.jd, Value::zero);
}

TEST(BasicExchangeTest, OnesResetWhenDecided) {
  const BasicExchange x(4);
  BasicState s = x.initial_state(0, Value::one);
  auto inbox = empty_inbox<BasicMsg>(4);
  inbox[1] = BasicMsg::init1;
  x.update(s, Action::decide(Value::one), inbox);
  EXPECT_EQ(s.ones, 0);
}

TEST(FipExchangeTest, InitialGraphKnowsOwnPreferenceOnly) {
  const FipExchange x(3);
  const FipState s = x.initial_state(1, Value::zero);
  EXPECT_EQ(s.graph().time(), 0);
  EXPECT_EQ(s.graph().pref(1), PrefLabel::zero);
  EXPECT_EQ(s.graph().pref(0), PrefLabel::unknown);
}

TEST(FipExchangeTest, AlwaysBroadcastsGraph) {
  const FipExchange x(3);
  const FipState s = x.initial_state(0, Value::one);
  const auto m = x.message(s, Action::noop(), 2);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(**m, s.graph());
  EXPECT_EQ(x.message_bits(*m), s.graph().bit_size());
}

TEST(FipExchangeTest, UpdateRecordsDeliveriesAndMergesPrefs) {
  const FipExchange x(3);
  FipState s0 = x.initial_state(0, Value::one);
  const FipState s1 = x.initial_state(1, Value::zero);

  auto inbox = empty_inbox<FipExchange::Message>(3);
  inbox[0] = std::make_shared<const CommGraph>(s0.graph());  // self
  inbox[1] = std::make_shared<const CommGraph>(s1.graph());
  // agent 2 omitted
  x.update(s0, Action::noop(), inbox);

  EXPECT_EQ(s0.time, 1);
  EXPECT_EQ(s0.graph().time(), 1);
  EXPECT_EQ(s0.graph().label(0, 1, 0), Label::present);
  EXPECT_EQ(s0.graph().label(0, 2, 0), Label::absent);
  EXPECT_EQ(s0.graph().label(0, 0, 0), Label::present);
  EXPECT_EQ(s0.graph().label(0, 0, 1), Label::unknown)
      << "a sender does not learn whether its own sends were delivered";
  EXPECT_EQ(s0.graph().pref(1), PrefLabel::zero) << "merged from agent 1's graph";
  EXPECT_EQ(s0.graph().pref(2), PrefLabel::unknown);
}

TEST(FipExchangeTest, StateEqualityIgnoresDecisionCache) {
  const FipExchange x(2);
  FipState a = x.initial_state(0, Value::one);
  FipState b = x.initial_state(0, Value::one);
  b.decided = Value::one;
  EXPECT_EQ(a, b);
  EXPECT_EQ(hash_value(a), hash_value(b));
  b.init = Value::zero;
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace eba
