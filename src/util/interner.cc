#include "util/interner.h"

#include <cassert>
#include <deque>
#include <unordered_map>

#include "util/mutex.h"

namespace relcomp {
namespace {

// A single process-wide table. Deque gives pointer stability for names.
struct InternTable {
  Mutex mu{LockRank::kInterner, "InternTable::mu"};
  std::unordered_map<std::string_view, SymbolId> index GUARDED_BY(mu);
  std::deque<std::string> names GUARDED_BY(mu);
};

InternTable& Table() {
  static InternTable* table = new InternTable();
  return *table;
}

}  // namespace

SymbolId InternSymbol(std::string_view name) {
  InternTable& t = Table();
  MutexLock lock(t.mu);
  auto it = t.index.find(name);
  if (it != t.index.end()) return it->second;
  t.names.emplace_back(name);
  SymbolId id = static_cast<SymbolId>(t.names.size() - 1);
  t.index.emplace(std::string_view(t.names.back()), id);
  return id;
}

const std::string& SymbolName(SymbolId id) {
  InternTable& t = Table();
  // Resolve under the lock, return outside it: deque elements are
  // pointer-stable and immutable once interned, so the reference stays
  // valid forever — only the container itself needs the mutex.
  const std::string* name;
  {
    MutexLock lock(t.mu);
    assert(id < t.names.size());
    name = &t.names[id];
  }
  return *name;
}

}  // namespace relcomp
