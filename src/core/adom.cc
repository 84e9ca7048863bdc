#include "core/adom.h"

#include <algorithm>

namespace relcomp {
namespace {

void AddAll(std::vector<Value>* dst, const std::vector<Value>& src) {
  dst->insert(dst->end(), src.begin(), src.end());
}

void SortUnique(std::vector<Value>* values) {
  std::sort(values->begin(), values->end());
  values->erase(std::unique(values->begin(), values->end()), values->end());
}

}  // namespace

AdomSeed AdomContext::SeedFor(const PartiallyClosedSetting& setting) {
  AdomSeed seed;

  // The setting's share of S: constants of Dm and V.
  seed.base = setting.dm.ActiveDomain();
  AddAll(&seed.base, CcConstants(setting.ccs));

  // df: all constants of finite attribute domains (database + master).
  for (const DatabaseSchema* schema : {&setting.schema,
                                       &setting.master_schema}) {
    for (const RelationSchema& rel : schema->relations()) {
      for (const Attribute& attr : rel.attributes()) {
        if (attr.domain.is_finite()) AddAll(&seed.base, attr.domain.values());
      }
    }
  }
  SortUnique(&seed.base);

  // The setting's share of New: one fresh constant per CC variable plus one
  // per column of the widest relation (for extension tuples).
  seed.fresh = static_cast<size_t>(CcMaxVarId(setting.ccs) + 1);
  size_t max_arity = 0;
  for (const RelationSchema& rel : setting.schema.relations()) {
    max_arity = std::max(max_arity, rel.arity());
  }
  seed.fresh += max_arity;
  return seed;
}

AdomContext AdomContext::BuildFromSeed(const AdomSeed& seed,
                                       const CInstance& cinstance,
                                       const Query* query) {
  AdomContext ctx;

  // S: constants of T (plus the query's, per the Thm 4.1 Adom) on top of the
  // cached setting constants.
  std::vector<Value> base = cinstance.Constants();
  AddAll(&base, seed.base);
  if (query != nullptr) AddAll(&base, query->Constants());
  SortUnique(&base);
  ctx.base_ = base;

  // New: one fresh constant per variable of T and the query, on top of the
  // cached setting budget.
  size_t num_fresh = cinstance.Vars().size() + seed.fresh;
  if (query != nullptr) {
    num_fresh += static_cast<size_t>(query->MaxVarId() + 1);
  }

  size_t counter = 0;
  while (ctx.fresh_.size() < num_fresh) {
    Value candidate = Value::Sym("@new" + std::to_string(counter++));
    if (!std::binary_search(base.begin(), base.end(), candidate)) {
      ctx.fresh_.push_back(candidate);
    }
  }

  ctx.values_ = base;
  AddAll(&ctx.values_, ctx.fresh_);
  SortUnique(&ctx.values_);
  return ctx;
}

}  // namespace relcomp
