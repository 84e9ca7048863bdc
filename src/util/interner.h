// Global symbol interner: maps strings to dense 32-bit ids so that Value can
// be a cheap, trivially-copyable 64-bit word. Database constants (patient
// names, city names, ...) are interned once and compared by id thereafter.
#ifndef RELCOMP_UTIL_INTERNER_H_
#define RELCOMP_UTIL_INTERNER_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace relcomp {

/// Dense id of an interned symbol.
using SymbolId = uint32_t;

/// Interns `name`, returning its stable id. Idempotent.
SymbolId InternSymbol(std::string_view name);

/// Returns the string for an id previously returned by InternSymbol.
const std::string& SymbolName(SymbolId id);

}  // namespace relcomp

#endif  // RELCOMP_UTIL_INTERNER_H_
