#include "store/run_log.hpp"

namespace eba {
namespace {

using Kind = DecodeError::Kind;

/// Shared preamble of both payloads: round index and population size.
std::pair<int, int> decode_round_n(Reader& r) {
  const int round = static_cast<int>(r.u32());
  const int n = static_cast<int>(r.u32());
  if (round < 0 || round > (1 << 20) || n < 1 || n > kMaxAgents)
    throw DecodeError(Kind::malformed, "bad run log round/population header");
  return {round, n};
}

std::vector<Action> decode_actions(Reader& r, int n) {
  std::vector<Action> actions;
  actions.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) actions.push_back(action_of(r.u8()));
  return actions;
}

std::vector<AgentSet> decode_rows(Reader& r, int n, bool forbid_self) {
  const int row_bytes = (n + 7) / 8;
  const std::uint64_t full = AgentSet::all(n).bits();
  std::vector<AgentSet> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (AgentId i = 0; i < n; ++i) {
    const std::uint64_t row = r.word(row_bytes);
    if ((row & ~full) != 0 || (forbid_self && ((row >> i) & 1u)))
      throw DecodeError(Kind::malformed,
                        "run log plane row outside the population");
    rows.push_back(AgentSet(row));
  }
  return rows;
}

void encode_rows(Writer& w, std::span<const AgentSet> rows, int n) {
  const int row_bytes = (n + 7) / 8;
  for (const AgentSet& s : rows) w.word(s.bits(), row_bytes);
}

}  // namespace

void encode_delta(Writer& w, const DeltaView& delta) {
  const int n = static_cast<int>(delta.actions.size());
  EBA_REQUIRE(static_cast<int>(delta.sent.size()) == n &&
                  static_cast<int>(delta.delivered.size()) == n,
              "delta planes must cover every agent");
  w.u32(static_cast<std::uint32_t>(delta.round));
  w.u32(static_cast<std::uint32_t>(n));
  for (const Action& a : delta.actions) w.u8(action_byte(a));
  encode_rows(w, delta.sent, n);
  encode_rows(w, delta.delivered, n);
}

DeltaPayload decode_delta(Reader& r) {
  DeltaPayload delta;
  const auto [round, n] = decode_round_n(r);
  delta.round = round;
  delta.actions = decode_actions(r, n);
  delta.sent = decode_rows(r, n, /*forbid_self=*/true);
  delta.delivered = decode_rows(r, n, /*forbid_self=*/false);
  for (int i = 0; i < n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    if (!delta.delivered[ui].subset_of(delta.sent[ui]))
      throw DecodeError(Kind::malformed,
                        "delta delivered row not a subset of sent");
  }
  return delta;
}

void encode_intent(Writer& w, const IntentView& intent) {
  const int n = static_cast<int>(intent.actions.size());
  EBA_REQUIRE(static_cast<int>(intent.dropped_send.size()) == n &&
                  static_cast<int>(intent.dropped_receive.size()) == n,
              "intent planes must cover every agent");
  w.u32(static_cast<std::uint32_t>(intent.round));
  w.u32(static_cast<std::uint32_t>(n));
  for (const Action& a : intent.actions) w.u8(action_byte(a));
  encode_rows(w, intent.dropped_send, n);
  encode_rows(w, intent.dropped_receive, n);
}

IntentPayload decode_intent(Reader& r) {
  IntentPayload intent;
  const auto [round, n] = decode_round_n(r);
  intent.round = round;
  intent.actions = decode_actions(r, n);
  intent.dropped_send = decode_rows(r, n, /*forbid_self=*/true);
  intent.dropped_receive = decode_rows(r, n, /*forbid_self=*/true);
  return intent;
}

DeltaView delta_of_record(const RunRecord& record, int m) {
  EBA_REQUIRE(m >= 0 && m < record.rounds,
              "delta round outside the recorded run");
  const std::size_t um = static_cast<std::size_t>(m);
  return {m, record.actions[um], record.sent[um], record.delivered[um]};
}

RunLog::RunLog(Journal&& journal) : journal_(std::move(journal)) {
  for (const JournalRecord& rec : journal_.records())
    if (rec.kind == kRunLogCheckpoint) checkpoint_seqs_.push_back(rec.seq);
}

RunLog RunLog::create(Vfs& vfs, const std::string& dir,
                      const JournalOptions& opt) {
  return RunLog(Journal::create(vfs, dir, opt));
}

RunLog RunLog::open(Vfs& vfs, const std::string& dir,
                    const JournalOptions& opt) {
  return RunLog(Journal::open(vfs, dir, opt));
}

void RunLog::log_checkpoint(const Bytes& checkpoint_bytes) {
  checkpoint_seqs_.push_back(
      journal_.append(kRunLogCheckpoint, checkpoint_bytes));
  journal_.sync();
}

void RunLog::log_delta(const DeltaView& delta) {
  buf_.clear();
  buf_.reserve(round_record_size(static_cast<int>(delta.actions.size())));
  encode_delta(buf_, delta);
  journal_.append(kRunLogDelta, buf_.bytes());
  journal_.sync();
}

void RunLog::log_intent(const IntentView& intent) {
  buf_.clear();
  buf_.reserve(round_record_size(static_cast<int>(intent.actions.size())));
  encode_intent(buf_, intent);
  journal_.append(kRunLogIntent, buf_.bytes());
  journal_.sync();
}

void RunLog::gc_keep_checkpoints(int keep) {
  EBA_REQUIRE(keep >= 1, "retention must keep at least one checkpoint");
  if (checkpoint_seqs_.size() <= static_cast<std::size_t>(keep)) return;
  const std::uint64_t min_seq =
      checkpoint_seqs_[checkpoint_seqs_.size() - static_cast<std::size_t>(keep)];
  journal_.gc(min_seq);
  checkpoint_seqs_.erase(
      checkpoint_seqs_.begin(),
      checkpoint_seqs_.end() - static_cast<std::ptrdiff_t>(keep));
}

}  // namespace eba
