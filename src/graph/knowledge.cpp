#include "graph/knowledge.hpp"

namespace eba {
namespace {

/// Fills `f` with fault-table rows 0..up_to (inclusive), flat row-major
/// with stride n, reusing its storage — the single implementation of the f
/// recurrence, shared by the free query functions and KnowledgeCache. Row m
/// is derived from row m-1 with whole-row masks: the definite-absent senders
/// of (m-1, j) join f(j, m) as one OR, and each definite-present sender
/// contributes its previous row.
void fault_rows_into(std::vector<AgentSet>& f, const CommGraph& g,
                     int up_to) {
  const std::size_t n = static_cast<std::size_t>(g.n());
  f.assign((static_cast<std::size_t>(up_to) + 1) * n, AgentSet{});
  for (int m = 1; m <= up_to; ++m) {
    const AgentSet* prev = f.data() + (static_cast<std::size_t>(m) - 1) * n;
    AgentSet* cur = f.data() + static_cast<std::size_t>(m) * n;
    for (AgentId j = 0; j < g.n(); ++j) {
      AgentSet acc = prev[j].united(g.absent_senders(m - 1, j));
      for (AgentId from : g.present_senders(m - 1, j))
        acc = acc.united(prev[from]);
      cur[j] = acc;
    }
  }
}

std::vector<AgentSet> fault_rows_flat(const CommGraph& g, int up_to) {
  std::vector<AgentSet> f;
  fault_rows_into(f, g, up_to);
  return f;
}

/// Fills the first (up_to+1)*n entries of `e` with evidence-table rows
/// 0..up_to, flat row-major with stride n — the GO twin of fault_rows_into.
/// `e` grows if needed and never shrinks, and each entry is overwritten in
/// place, so a reused table keeps every entry's adjacency storage. Row m
/// derives from row m-1 the same way: j's definite-absent round-(m-1→m)
/// senders join as fresh clauses, and each definite-present sender
/// contributes its previous evidence.
void go_evidence_rows_into(std::vector<OmissionEvidence>& e,
                           const CommGraph& g, int up_to) {
  const std::size_t n = static_cast<std::size_t>(g.n());
  const std::size_t rows = static_cast<std::size_t>(up_to) + 1;
  if (e.size() < rows * n) e.resize(rows * n);
  for (std::size_t j = 0; j < n; ++j) e[j].reset(g.n());
  for (int m = 1; m <= up_to; ++m) {
    const OmissionEvidence* prev =
        e.data() + (static_cast<std::size_t>(m) - 1) * n;
    OmissionEvidence* cur = e.data() + static_cast<std::size_t>(m) * n;
    for (AgentId j = 0; j < g.n(); ++j) {
      OmissionEvidence& acc = cur[j];
      acc = prev[j];
      acc.add_senders(g.absent_senders(m - 1, j), j);
      for (AgentId from : g.present_senders(m - 1, j))
        acc.unite(prev[from]);
    }
  }
}

std::vector<OmissionEvidence> go_evidence_rows_flat(const CommGraph& g,
                                                    int up_to) {
  std::vector<OmissionEvidence> e;
  go_evidence_rows_into(e, g, up_to);
  return e;
}

/// Branch-on-an-uncovered-clause search for a <= budget cover avoiding
/// `avoid`. `removed` = endpoints already placed in the cover.
bool cover_search(const OmissionEvidence& e, AgentSet removed, AgentSet avoid,
                  int budget) {
  for (AgentId a = 0; a < e.n(); ++a) {
    if (removed.contains(a)) continue;
    const AgentSet rest = e.adj(a).minus(removed);
    if (rest.empty()) continue;
    if (budget == 0) return false;
    const AgentId b = *rest.begin();
    // The clause {a, b} must be covered by a or b.
    if (!avoid.contains(a) &&
        cover_search(e, removed.united(AgentSet{a}), avoid, budget - 1))
      return true;
    if (!avoid.contains(b) &&
        cover_search(e, removed.united(AgentSet{b}), avoid, budget - 1))
      return true;
    return false;
  }
  return true;  // every clause covered
}

}  // namespace

bool go_cover_exists(const OmissionEvidence& e, int budget, AgentSet avoid) {
  EBA_REQUIRE(budget >= 0, "negative fault budget");
  return cover_search(e, AgentSet{}, avoid, budget);
}

AgentSet go_known_faults(const OmissionEvidence& e, int t) {
  EBA_REQUIRE(go_cover_exists(e, t, AgentSet{}),
              "omission evidence is inconsistent with the GO(t) budget");
  AgentSet forced;
  for (AgentId x : e.implicated())
    if (!go_cover_exists(e, t, AgentSet{x})) forced.insert(x);
  return forced;
}

AgentSet go_possibly_faulty(const OmissionEvidence& e, int t) {
  EBA_REQUIRE(t >= 0, "negative fault budget");
  AgentSet possible;
  if (t == 0) return possible;
  for (AgentId x = 0; x < e.n(); ++x)
    // A cover containing x: x covers its own clauses, the rest must be
    // coverable with the remaining budget.
    if (cover_search(e, AgentSet{x}, AgentSet{}, t - 1)) possible.insert(x);
  return possible;
}

OmissionEvidence go_evidence(const CommGraph& g, AgentId j, int m) {
  EBA_REQUIRE(m >= 0 && m <= g.time(), "time out of range");
  EBA_REQUIRE(j >= 0 && j < g.n(), "agent id out of range");
  const auto rows = go_evidence_rows_flat(g, m);
  return rows[static_cast<std::size_t>(m) * static_cast<std::size_t>(g.n()) +
              static_cast<std::size_t>(j)];
}

std::vector<std::vector<OmissionEvidence>> go_evidence_table(
    const CommGraph& g) {
  const std::size_t n = static_cast<std::size_t>(g.n());
  const auto flat = go_evidence_rows_flat(g, g.time());
  std::vector<std::vector<OmissionEvidence>> e(
      static_cast<std::size_t>(g.time()) + 1);
  for (std::size_t m = 0; m < e.size(); ++m)
    e[m].assign(flat.begin() + static_cast<std::ptrdiff_t>(m * n),
                flat.begin() + static_cast<std::ptrdiff_t>((m + 1) * n));
  return e;
}

Cone::Cone(const CommGraph& g, AgentId target, int m_top) {
  rebuild(g, target, m_top);
}

void Cone::rebuild(const CommGraph& g, AgentId target, int m_top) {
  EBA_REQUIRE(m_top >= 0 && m_top <= g.time(), "cone top out of range");
  EBA_REQUIRE(target >= 0 && target < g.n(), "agent id out of range");
  m_top_ = m_top;
  last_heard_.assign(static_cast<std::size_t>(g.n()), -1);
  members_.assign(static_cast<std::size_t>(m_top) + 1, AgentSet{});
  members_[static_cast<std::size_t>(m_top)].insert(target);
  for (int m = m_top; m > 0; --m) {
    AgentSet frontier;
    for (AgentId to : members_[static_cast<std::size_t>(m)])
      frontier = frontier.united(g.present_senders(m - 1, to));
    members_[static_cast<std::size_t>(m - 1)] = frontier;
  }
  AgentSet unseen = AgentSet::all(g.n());
  for (int m = m_top; m >= 0 && !unseen.empty(); --m) {
    for (AgentId j : members_[static_cast<std::size_t>(m)].intersected(unseen))
      last_heard_[static_cast<std::size_t>(j)] = m;
    unseen = unseen.minus(members_[static_cast<std::size_t>(m)]);
  }
}

void KnowledgeCache::sync(const CommGraph& g) {
  if (graph_ == &g && revision_ == g.revision()) return;
  invalidate();
  graph_ = &g;
  revision_ = g.revision();
}

std::span<const AgentSet> KnowledgeCache::fault_row(const CommGraph& g, int m) {
  sync(g);
  const std::size_t n = static_cast<std::size_t>(g.n());
  if (!have_faults_) {
    fault_rows_into(faults_, g, g.time());
    have_faults_ = true;
  }
  EBA_REQUIRE(m >= 0 && m <= g.time(), "time out of range");
  return {faults_.data() + static_cast<std::size_t>(m) * n, n};
}

std::span<const OmissionEvidence> KnowledgeCache::go_evidence_row(
    const CommGraph& g, int m) {
  sync(g);
  const std::size_t n = static_cast<std::size_t>(g.n());
  if (!have_go_evidence_) {
    go_evidence_rows_into(go_evidence_, g, g.time());
    have_go_evidence_ = true;
  }
  EBA_REQUIRE(m >= 0 && m <= g.time(), "time out of range");
  return {go_evidence_.data() + static_cast<std::size_t>(m) * n, n};
}

const Cone& KnowledgeCache::cone(const CommGraph& g, AgentId target, int m_top) {
  sync(g);
  ConeSlot* spare = nullptr;
  for (const auto& slot : cones_) {
    if (slot->epoch != epoch_) {
      if (spare == nullptr) spare = slot.get();
    } else if (slot->target == target && slot->m_top == m_top) {
      return slot->cone;
    }
  }
  if (spare == nullptr)
    spare = cones_.emplace_back(std::make_unique<ConeSlot>()).get();
  spare->cone.rebuild(g, target, m_top);  // validates before the slot goes live
  spare->epoch = epoch_;
  spare->target = target;
  spare->m_top = m_top;
  return spare->cone;
}

void extract_view_into(CommGraph& out, const CommGraph& g, const Cone& cone) {
  EBA_REQUIRE(&out != &g, "extract_view_into cannot overwrite its source");
  const int m = cone.top();
  out.reset_blank(g.n(), m);
  const AgentSet full = AgentSet::all(g.n());
  for (int m2 = 1; m2 <= m; ++m2) {
    for (AgentId to : cone.at(m2)) {
      const AgentSet known = g.known_senders(m2 - 1, to);
      EBA_REQUIRE(known == full,
                  "extract_view target is not in the owner's cone");
      out.set_row(m2 - 1, to, known, g.present_senders(m2 - 1, to));
    }
  }
  for (AgentId k : cone.at(0)) out.set_pref(k, g.pref(k));
}

CommGraph extract_view(const CommGraph& g, AgentId j, int m) {
  CommGraph view = CommGraph::blank(g.n(), 0);
  extract_view_into(view, g, Cone(g, j, m));
  return view;
}

AgentSet known_faults(const CommGraph& g, AgentId j, int m) {
  EBA_REQUIRE(m >= 0 && m <= g.time(), "time out of range");
  EBA_REQUIRE(j >= 0 && j < g.n(), "agent id out of range");
  const auto rows = fault_rows_flat(g, m);
  return rows[static_cast<std::size_t>(m) * static_cast<std::size_t>(g.n()) +
              static_cast<std::size_t>(j)];
}

std::vector<std::vector<AgentSet>> known_faults_table(const CommGraph& g) {
  const std::size_t n = static_cast<std::size_t>(g.n());
  const auto flat = fault_rows_flat(g, g.time());
  std::vector<std::vector<AgentSet>> f(static_cast<std::size_t>(g.time()) + 1);
  for (std::size_t m = 0; m < f.size(); ++m)
    f[m].assign(flat.begin() + static_cast<std::ptrdiff_t>(m * n),
                flat.begin() + static_cast<std::ptrdiff_t>((m + 1) * n));
  return f;
}

AgentSet distributed_faults(const CommGraph& g, AgentSet s, int m) {
  EBA_REQUIRE(m >= 0 && m <= g.time(), "time out of range");
  const auto rows = fault_rows_flat(g, m);
  const AgentSet* row =
      rows.data() + static_cast<std::size_t>(m) * static_cast<std::size_t>(g.n());
  AgentSet out;
  for (AgentId k : s) out = out.united(row[k]);
  return out;
}

AgentSet cone_roots(const CommGraph& g, AgentId j, int m) {
  EBA_REQUIRE(m >= 0 && m <= g.time(), "cone top out of range");
  EBA_REQUIRE(j >= 0 && j < g.n(), "agent id out of range");
  AgentSet frontier{j};
  for (int m2 = m; m2 > 0; --m2) {
    AgentSet next;
    for (AgentId to : frontier) next = next.united(g.present_senders(m2 - 1, to));
    frontier = next;
  }
  return frontier;
}

ValueSet known_values(const CommGraph& g, AgentId j, int m,
                      const Cone& owner_cone) {
  ValueSet out;
  if (!owner_cone.contains(j, m)) return out;
  const AgentSet roots = cone_roots(g, j, m);
  const AgentSet zeros = roots.intersected(g.known_prefs().minus(g.one_prefs()));
  const AgentSet ones = roots.intersected(g.known_prefs().intersected(g.one_prefs()));
  if (!zeros.empty()) out.insert(Value::zero);
  if (!ones.empty()) out.insert(Value::one);
  return out;
}

}  // namespace eba
