#include "core/ground.h"

namespace relcomp {

Result<bool> IsPartiallyClosed(const PreparedSetting& prepared,
                               const Instance& instance) {
  return prepared.SatisfiesCCs(instance);
}

Result<bool> IsCompleteGround(const Query& q, const Instance& instance,
                              const PreparedSetting& prepared,
                              const AdomContext& adom,
                              const SearchOptions& options, SearchStats* stats,
                              CompletenessWitness* witness) {
  if (q.language() == QueryLanguage::kFO ||
      q.language() == QueryLanguage::kFP) {
    return Status::Undecidable(
        std::string("RCDP in the strong/viable model is undecidable for ") +
        QueryLanguageName(q.language()) +
        " (Theorem 4.1); use the bounded search in core/bounded.h");
  }
  Result<bool> closed = IsPartiallyClosed(prepared, instance);
  if (!closed.ok()) return closed.status();
  if (!*closed) {
    if (witness != nullptr) {
      witness->note = "instance is not partially closed: a CC is violated";
    }
    return false;
  }

  if (stats != nullptr) ++stats->query_evals;
  Result<Relation> answers = q.Eval(instance, adom.values());
  if (!answers.ok()) return answers.status();

  Result<std::vector<ConjunctiveQuery>> disjuncts = q.Disjuncts();
  if (!disjuncts.ok()) return disjuncts.status();

  SearchCheckpoint checkpoint(options, "ground completeness search", "ground");
  for (const ConjunctiveQuery& disjunct : *disjuncts) {
    // Fresh constants are interchangeable in this existential search, so a
    // symmetry-broken enumeration suffices (values of I stay pinned).
    CanonicalValuationEnumerator nus =
        MakeCanonicalCqEnumerator(disjunct, prepared.schema(), adom, instance);
    Valuation nu;
    while (nus.Next(&nu)) {
      RELCOMP_RETURN_IF_ERROR(checkpoint.Tick());
      if (stats != nullptr) ++stats->valuations;
      // The canonical extension only produces a new answer if the builtins
      // hold under ν.
      Result<bool> builtins_ok = disjunct.BuiltinsSatisfied(nu);
      if (!builtins_ok.ok()) return builtins_ok.status();
      if (!*builtins_ok) continue;
      // Cheap test first: the candidate new answer ν(u_Q).
      Result<Tuple> head = disjunct.InstantiateHead(nu);
      if (!head.ok()) return head.status();
      if (answers->Contains(*head)) continue;
      // Build I ∪ ν(T_Q) and check partial closure.
      Result<Instance> tableau =
          disjunct.InstantiateTableau(nu, prepared.schema());
      if (!tableau.ok()) return tableau.status();
      Instance extended = instance.Union(*tableau);
      if (stats != nullptr) {
        ++stats->extensions;
        ++stats->cc_checks;
      }
      Result<bool> ext_closed = prepared.SatisfiesCCs(extended);
      if (!ext_closed.ok()) return ext_closed.status();
      if (!*ext_closed) continue;
      if (witness != nullptr) {
        witness->world = instance;
        witness->extension = std::move(extended);
        witness->answer = *head;
        witness->note =
            "partially closed extension adds answer " + TupleToString(*head);
      }
      return false;
    }
  }
  return true;
}

Result<bool> IsCompleteGroundAuto(const Query& q, const Instance& instance,
                                  const PreparedSetting& prepared,
                                  const SearchOptions& options,
                                  SearchStats* stats,
                                  CompletenessWitness* witness) {
  AdomContext adom = prepared.BuildAdomForGround(instance, &q);
  return IsCompleteGround(q, instance, prepared, adom, options, stats,
                          witness);
}

}  // namespace relcomp
