#include "generator.h"

#include <set>
#include <vector>

namespace perfbench {
namespace {

const char* const kNames[] = {"Ann", "Bob", "Cid", "Dee",
                              "Eve", "Fay", "Gus", "Hal"};
const char* const kCities[] = {"EDI", "LON", "GLA"};
const int kYears[] = {1999, 2000, 2001, 2002};
const char* const kDiags[] = {"Flu", "Diabetes", "Influenza"};

// Visit column positions.
enum Col { kNhs, kName, kCity, kYob, kDiag, kNumCols };

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

struct Patient {
  std::string nhs, name;
  int yob;
};

/// One Visit row: a rendered constant or a variable name per column, plus
/// the builtins that guard the row's variables.
struct Row {
  std::string cells[kNumCols];
  bool has_var = false;
  std::vector<std::string> conditions;
};

Row VisitOf(const Patient& p, Rng& rng) {
  Row row;
  row.cells[kNhs] = Quote(p.nhs);
  row.cells[kName] = Quote(p.name);
  row.cells[kCity] = Quote(kCities[rng.Below(3)]);
  row.cells[kYob] = std::to_string(p.yob);
  row.cells[kDiag] = Quote(kDiags[rng.Below(3)]);
  return row;
}

/// A constant of column `col`'s domain other than the one a row holds, for
/// `x != c` conditions.
std::string OtherConstant(int col, Rng& rng) {
  switch (col) {
    case kCity: return Quote(kCities[rng.Below(3)]);
    case kYob: return std::to_string(kYears[rng.Below(4)]);
    case kDiag: return Quote(kDiags[rng.Below(3)]);
    default: return Quote(kNames[rng.Below(8)]);
  }
}

std::string Atom(const Row& row) {
  std::string out = "Visit(";
  for (int c = 0; c < kNumCols; ++c) {
    if (c > 0) out += ", ";
    out += row.cells[c];
  }
  return out + ")";
}

}  // namespace

std::string GenerateTenant(const TenantShape& shape, const std::string& tag,
                           Rng& rng) {
  std::string out;
  out +=
      "schema Visit(nhs: sym, name: {\"Ann\", \"Bob\", \"Cid\", \"Dee\", "
      "\"Eve\", \"Fay\", \"Gus\", \"Hal\"}, city: {\"EDI\", \"LON\", \"GLA\"}, "
      "yob: {1999, 2000, 2001, 2002}, "
      "diag: {\"Flu\", \"Diabetes\", \"Influenza\"}).\n"
      "master Patientm(nhs: sym, name: sym, yob: int).\n"
      "cc known(n, na) :- Visit(n, na, c, y, di) <= Patientm[nhs, name].\n";
  if (shape.non_ind_cc) {
    out +=
        "cc edi(n, na, y) :- Visit(n, na, c, y, di), c = \"EDI\" "
        "<= Patientm[nhs, name, yob].\n";
  }

  // Master data, the same for every seed: the decider's search order runs
  // through it, so random master rows would make a seed's cost swing with a
  // handful of draws. For open shapes every third patient is
  // recorded under two names (Fig. 1's John/Bob ambiguity), so worlds can
  // disagree on a name.
  std::vector<Patient> patients;
  out += "minstance dm {\n";
  for (int i = 0; i < shape.dm_rows; ++i) {
    Patient p{tag + "n" + std::to_string(i), kNames[i % 8], kYears[i % 4]};
    patients.push_back(p);
    out += "  Patientm(" + Quote(p.nhs) + ", " + Quote(p.name) + ", " +
           std::to_string(p.yob) + ").\n";
    if (shape.open_vars && i % 3 == 0) {
      p.name = kNames[(i + 4) % 8];
      patients.push_back(p);
      out += "  Patientm(" + Quote(p.nhs) + ", " + Quote(p.name) + ", " +
             std::to_string(p.yob) + ").\n";
    }
  }
  out += "}\n";

  // Workload queries: which cities / years / diagnoses a visit pattern has.
  // Cheap queries pin nhs and name, so every tableau variable ranges over a
  // finite domain; open queries leave nhs free. Texts are unique, so
  // distinct requests never share a cache key by accident.
  //
  // Cheap queries ask about the first half of the patients, and cheap
  // c-instances plant variables only in rows of the second half: a variable
  // row that can match a cheap query makes the worlds disagree on its
  // answer, and the weak-model decider then enumerates every candidate
  // tuple over an active domain of |Dm| constants.
  const size_t half = shape.open_vars ? patients.size() : patients.size() / 2;
  std::set<std::string> seen;
  for (int k = 0; k < shape.num_queries; ++k) {
    std::string head, body;
    for (int attempt = 0; attempt < 32; ++attempt) {
      const Patient& p = patients[rng.Below(half)];
      std::string vars[kNumCols] = {"n", "na", "c", "y", "di"};
      if (shape.open_vars) {
        vars[kName] = Quote(p.name);
        head = "n";
      } else {
        vars[kNhs] = Quote(p.nhs);
        vars[kName] = Quote(p.name);
        static const char* const kHeads[] = {"c", "c, y", "y, di", "c, di"};
        head = kHeads[rng.Below(4)];
      }
      // Open queries always select on city and year: each further free
      // finite column multiplies the weak-model search.
      const double select = shape.open_vars ? 1.0 : 0.6;
      body = "Visit(";
      for (int c = 0; c < kNumCols; ++c) body += (c > 0 ? ", " : "") + vars[c];
      body += ")";
      if (rng.Chance(select)) body += ", c = " + OtherConstant(kCity, rng);
      if (rng.Chance(select)) body += ", y = " + OtherConstant(kYob, rng);
      if (rng.Chance(0.3)) body += ", di = " + OtherConstant(kDiag, rng);
      if (seen.insert(head + body).second) break;
    }
    out += "query q_" + std::to_string(k) + "(" + head + ") :- " + body + ".\n";
  }

  // C-instances: rows drawn from the master's patients, with variables
  // planted in distinct cells (never nhs), each maybe guarded by `x != c`.
  for (int k = 0; k < shape.num_ctables; ++k) {
    std::string ground, tableau;
    for (int attempt = 0; attempt < 32; ++attempt) {
      std::vector<Row> rows;
      // Row and variable counts cycle through their ranges, so every seed
      // has the same mix of c-instance sizes.
      const int num_rows =
          shape.ct_rows_min + k % (shape.ct_rows_max - shape.ct_rows_min + 1);
      for (int r = 0; r < num_rows; ++r) {
        const size_t first = shape.open_vars || r == 0 ? 0 : half;
        rows.push_back(VisitOf(
            patients[first + rng.Below(patients.size() - first)], rng));
      }
      // Cheap c-instances keep row 0 (any patient) ground.
      const size_t first_var_row = shape.open_vars ? 0 : 1;
      const int num_vars =
          shape.ct_vars_min + k % (shape.ct_vars_max - shape.ct_vars_min + 1);
      // Open shapes keep variables out of the name and year columns and
      // always exclude one value: each variable then has at most two
      // values, which bounds the worlds a search walks through.
      const std::vector<int> var_cols =
          shape.open_vars ? std::vector<int>{kCity, kDiag}
                          : std::vector<int>{kCity, kYob, kDiag};
      for (int v = 0; v < num_vars; ++v) {
        // Retry a few times for an unused cell; a crowded table simply ends
        // up with fewer variables.
        for (int tries = 0; tries < 8 && rows.size() > first_var_row;
             ++tries) {
          Row& row =
              rows[first_var_row + rng.Below(rows.size() - first_var_row)];
          const int col = var_cols[rng.Below(var_cols.size())];
          if (row.cells[col][0] == 'x') continue;
          const std::string var = "x" + std::to_string(v);
          row.cells[col] = var;
          row.has_var = true;
          if (shape.open_vars || rng.Chance(0.5)) {
            row.conditions.push_back(var + " != " + OtherConstant(col, rng));
          }
          break;
        }
      }
      ground.clear();
      tableau.clear();
      for (const Row& row : rows) {
        if (!row.has_var) {
          ground += "  " + Atom(row) + ".\n";
          continue;
        }
        tableau += (tableau.empty() ? "" : ", ") + Atom(row);
        for (const std::string& c : row.conditions) tableau += ", " + c;
      }
      if (seen.insert(ground + "|" + tableau).second) break;
    }
    const std::string name = "t_" + std::to_string(k);
    if (!ground.empty()) out += "instance " + name + " {\n" + ground + "}\n";
    if (!tableau.empty()) {
      out += "query " + name + "() :- " + tableau + ".\n";
    }
  }
  return out;
}

}  // namespace perfbench
