#include "query/printer.h"

#include <algorithm>
#include <vector>

namespace relcomp {
namespace {

std::string AlignRow(const std::vector<std::string>& cells,
                     const std::vector<size_t>& widths) {
  std::string out = "|";
  for (size_t i = 0; i < cells.size(); ++i) {
    out += " " + cells[i];
    out += std::string(widths[i] - cells[i].size() + 1, ' ');
    out += "|";
  }
  return out;
}

std::string FormatGrid(const std::string& title,
                       const std::vector<std::string>& header,
                       const std::vector<std::vector<std::string>>& rows) {
  std::vector<size_t> widths(header.size());
  for (size_t i = 0; i < header.size(); ++i) widths[i] = header[i].size();
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::string out = title + "\n";
  out += AlignRow(header, widths) + "\n";
  std::string rule = "|";
  for (size_t w : widths) rule += std::string(w + 2, '-') + "|";
  out += rule + "\n";
  for (const auto& row : rows) out += AlignRow(row, widths) + "\n";
  return out;
}

}  // namespace

std::string FormatRelation(const Relation& rel) {
  std::vector<std::string> header;
  for (const Attribute& attr : rel.schema().attributes()) {
    header.push_back(attr.name);
  }
  std::vector<std::vector<std::string>> rows;
  for (const Tuple& t : rel.rows()) {
    std::vector<std::string> row;
    for (const Value& v : t) row.push_back(v.ToString());
    rows.push_back(std::move(row));
  }
  return FormatGrid(rel.schema().name(), header, rows);
}

std::string FormatInstance(const Instance& instance) {
  std::string out;
  for (const Relation& rel : instance.relations()) {
    out += FormatRelation(rel) + "\n";
  }
  return out;
}

std::string FormatCTable(const CTable& table) {
  std::vector<std::string> header;
  for (const Attribute& attr : table.schema().attributes()) {
    header.push_back(attr.name);
  }
  header.push_back("cond");
  std::vector<std::vector<std::string>> rows;
  for (const CRow& row : table.rows()) {
    std::vector<std::string> cells;
    for (const Cell& cell : row.cells) cells.push_back(CellToString(cell));
    cells.push_back(row.condition.IsTrivial() ? ""
                                              : row.condition.ToString());
    rows.push_back(std::move(cells));
  }
  return FormatGrid(table.schema().name(), header, rows);
}

}  // namespace relcomp
