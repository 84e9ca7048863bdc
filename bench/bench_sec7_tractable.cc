// Experiment S7 (Section 7, Corollaries 7.1–7.3): with Q and V fixed and a
// constant number of variables, RCDP / MINP scale polynomially in the data
// size (|T| rows and |Dm|), in contrast to the exponential variable sweeps
// of the combined-complexity benchmarks.
#include <benchmark/benchmark.h>

#include "core/tractable.h"
#include "reductions/examples_fig1.h"

namespace relcomp {
namespace {

SearchOptions BigBudget() {
  SearchOptions o;
  o.max_steps = 1ull << 42;
  return o;
}

void BM_RcdpStrongTractable_VsRows(benchmark::State& state) {
  PatientsFixture fx =
      MakeScaledPatientsFixture(static_cast<int>(state.range(0)), 2);
  for (auto _ : state) {
    const PreparedSetting prepared = PreparedSetting::Borrow(fx.setting);
    auto r = RcdpStrongTractable(fx.q1, fx.ctable, prepared, 8, BigBudget());
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RcdpStrongTractable_VsRows)->Range(2, 16)->Complexity();

void BM_RcdpWeakTractable_VsRows(benchmark::State& state) {
  PatientsFixture fx =
      MakeScaledPatientsFixture(static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    const PreparedSetting prepared = PreparedSetting::Borrow(fx.setting);
    auto r = RcdpWeakTractable(fx.q1, fx.ctable, prepared, 8, BigBudget());
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RcdpWeakTractable_VsRows)->Range(2, 16)->Complexity();

void BM_RcdpViableTractable_VsRows(benchmark::State& state) {
  PatientsFixture fx =
      MakeScaledPatientsFixture(static_cast<int>(state.range(0)), 2);
  for (auto _ : state) {
    const PreparedSetting prepared = PreparedSetting::Borrow(fx.setting);
    auto r = RcdpViableTractable(fx.q4, fx.ctable, prepared, 8, BigBudget());
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RcdpViableTractable_VsRows)->Range(2, 8)->Complexity();

void BM_MinpWeakCqTractable_VsMaster(benchmark::State& state) {
  // Lemma 5.7's coDP check against growing master data.
  PatientsFixture fx = MakePatientsFixture();
  for (int i = 0; i < state.range(0); ++i) {
    fx.setting.dm.AddTuple(
        "Patientm", {Value::Sym("777-" + std::to_string(i)), Value::Sym("X"),
                     Value::Int(1999), Value::Sym("Z"), Value::Sym("M")});
  }
  CInstance empty(fx.setting.schema);
  for (auto _ : state) {
    const PreparedSetting prepared = PreparedSetting::Borrow(fx.setting);
    auto r = MinpWeakCqTractable(fx.q1, empty, prepared, 8, BigBudget());
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MinpWeakCqTractable_VsMaster)->Range(4, 64)->Complexity();

void BM_Contrast_ExponentialInVars(benchmark::State& state) {
  // The same decider outside the constant-variable regime: each missing
  // value multiplies the world count (finite DrID domain, factor 3).
  PatientsFixture fx =
      MakeScaledPatientsFixture(2, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    SearchStats stats;
    const PreparedSetting prepared = PreparedSetting::Borrow(fx.setting);
    auto r = RcdpStrong(fx.q1, fx.ctable, prepared, BigBudget(), &stats);
    benchmark::DoNotOptimize(r);
    state.counters["worlds"] = static_cast<double>(stats.worlds);
  }
}
BENCHMARK(BM_Contrast_ExponentialInVars)->DenseRange(0, 3, 1);

}  // namespace
}  // namespace relcomp

BENCHMARK_MAIN();
