// Seeded workload generator for the relcomp end-to-end benchmark. It emits
// `.rcp` program text only (the query/parser.h language); main.cc hands
// that text to ParseProgram, so the program under test sees nothing but the
// generated source.
//
// Every tenant program declares the Fig. 1-style patients schema
//
//   schema Visit(nhs: sym, name: {...}, city: {...}, yob: {...}, diag: {...}).
//   master Patientm(nhs: sym, name: sym, yob: int).
//
// a `minstance dm` block of |Dm| patients, an IND CC binding every visit's
// (nhs, name) to the master and optionally a non-IND CC (Example 2.1's
// Edinburgh rule, which carries a builtin). Workload queries are named
// `q_<k>`. The language has no syntax for c-tables, so a c-instance `t_<k>`
// is written as an `instance t_<k>` block holding its ground rows plus a
// `query t_<k>() :- ...` tableau whose atoms are its rows with variables;
// a builtin `x != c` becomes the local condition of the first row that
// mentions x. ToCInstance (in main.cc) reads them back that way.
#ifndef PERFBENCH_GENERATOR_H_
#define PERFBENCH_GENERATOR_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// splitmix64: a small, fully specified generator, so one seed yields the
/// same workload on every platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi].
  int Between(int lo, int hi) {
    return lo + static_cast<int>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  /// True with probability `p`.
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  uint64_t state_;
};

/// The knobs one tenant program varies.
struct TenantShape {
  int dm_rows = 8;          ///< |Dm|: Patientm rows
  bool non_ind_cc = false;  ///< also declare the Edinburgh (non-IND) CC
  int num_queries = 8;
  int num_ctables = 8;
  int ct_rows_min = 1, ct_rows_max = 3;  ///< rows per c-instance
  int ct_vars_min = 0, ct_vars_max = 0;  ///< variables per c-instance
  /// Queries leave the infinite-domain nhs column free, so their tableau
  /// search ranges over the whole active domain (audit-search). Otherwise
  /// queries pin nhs and name and every variable is in a small finite
  /// domain (cheap decisions).
  bool open_vars = false;
};

/// Generates one tenant's program. `tag` keeps constants of different
/// tenants apart, so two tenants never share a fingerprint.
std::string GenerateTenant(const TenantShape& shape, const std::string& tag,
                           Rng& rng);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATOR_H_
