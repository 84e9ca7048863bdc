// Pretty-printing helpers for relations, instances and c-tables: aligned
// text tables for examples and benchmark reports.
#ifndef RELCOMP_QUERY_PRINTER_H_
#define RELCOMP_QUERY_PRINTER_H_

#include <string>

#include "ctable/cinstance.h"
#include "data/instance.h"

namespace relcomp {

/// Renders a relation as an aligned table with a header row.
std::string FormatRelation(const Relation& rel);

/// Renders every relation of an instance.
std::string FormatInstance(const Instance& instance);

/// Renders a c-table with its conditions column (like Fig. 1 of the paper).
std::string FormatCTable(const CTable& table);

}  // namespace relcomp

#endif  // RELCOMP_QUERY_PRINTER_H_
