#include "reductions/thm51_fp.h"

#include <cassert>

namespace relcomp {
namespace {

// The 30 gadget values juxtaposed in columns A1..A30:
// A1..A2   : I(0,1) = (1, 0)
// A3..A14  : I∨ rows (0,0,0), (0,1,1), (1,0,1), (1,1,1)
// A15..A26 : I∧ rows (0,0,0), (0,1,0), (1,0,0), (1,1,1)
// A27..A30 : I¬ rows (0,1), (1,0)
std::vector<int64_t> GadgetColumnValues() {
  std::vector<int64_t> v = {1, 0};
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      v.push_back(a);
      v.push_back(b);
      v.push_back(a | b);
    }
  }
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      v.push_back(a);
      v.push_back(b);
      v.push_back(a & b);
    }
  }
  v.push_back(0);
  v.push_back(1);
  v.push_back(1);
  v.push_back(0);
  return v;
}

// An R atom with fresh variables everywhere except the pinned positions.
RelAtom RAtom(const std::vector<std::pair<int, CTerm>>& pinned,
              int32_t* next_var) {
  RelAtom atom;
  atom.rel = "R";
  atom.args.resize(31);
  for (int i = 0; i < 31; ++i) atom.args[i] = VarId{(*next_var)++};
  for (const auto& [pos, term] : pinned) {
    atom.args[static_cast<size_t>(pos)] = term;
  }
  return atom;
}

}  // namespace

GadgetProblem BuildSuccinctTautGadget(const Circuit& circuit) {
  assert(circuit.Validate().ok());
  int n = circuit.NumInputs();
  std::vector<int64_t> cols = GadgetColumnValues();

  GadgetProblem out;

  // Database schema: R(A0..A30). A0 is Boolean; A1..A30 carry singleton
  // domains pinning the gadget encoding (the paper uses CCs for the same
  // restriction; finite domains express it directly and keep the extension
  // space the paper intends: the A0 = 0 twin of t).
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute{"A0", Domain::Boolean()});
  for (int i = 0; i < 30; ++i) {
    attrs.push_back(Attribute{
        "A" + std::to_string(i + 1),
        Domain::Finite({Value::Int(cols[static_cast<size_t>(i)])})});
  }
  out.setting.schema.AddRelation(RelationSchema("R", std::move(attrs)));

  // Master schema: the A1..A30 core row and the Boolean A0 bound.
  {
    std::vector<Attribute> mattrs;
    for (int i = 0; i < 30; ++i) {
      mattrs.push_back(
          Attribute{"A" + std::to_string(i + 1), Domain::Infinite()});
    }
    out.setting.master_schema.AddRelation(
        RelationSchema("Rcore", std::move(mattrs)));
    out.setting.master_schema.AddRelation(
        RelationSchema("R01m", {Attribute{"x", Domain::Boolean()}}));
    out.setting.dm = Instance(out.setting.master_schema);
    Tuple core;
    for (int i = 0; i < 30; ++i) {
      core.push_back(Value::Int(cols[static_cast<size_t>(i)]));
    }
    out.setting.dm.AddTuple("Rcore", std::move(core));
    out.setting.dm.AddTuple("R01m", {Value::Int(0)});
    out.setting.dm.AddTuple("R01m", {Value::Int(1)});
  }

  // V: π(A1..A30)(R) ⊆ Rcore and π(A0)(R) ⊆ R01m.
  {
    std::vector<CTerm> head;
    std::vector<CTerm> args;
    std::vector<int> proj;
    args.push_back(VarId{0});
    for (int i = 1; i <= 30; ++i) {
      args.push_back(VarId{i});
      head.push_back(VarId{i});
      proj.push_back(i - 1);
    }
    ConjunctiveQuery q(std::move(head), {RelAtom{"R", std::move(args)}});
    out.setting.ccs.emplace_back("core_bound", std::move(q), "Rcore",
                                 std::move(proj));
  }
  {
    std::vector<CTerm> args;
    for (int i = 0; i <= 30; ++i) args.push_back(VarId{i});
    ConjunctiveQuery q({CTerm(VarId{0})}, {RelAtom{"R", std::move(args)}});
    out.setting.ccs.emplace_back("a0_bool", std::move(q), "R01m",
                                 std::vector<int>{0});
  }

  // I: the single tuple t with A0 = 1.
  out.ground = Instance(out.setting.schema);
  {
    Tuple t;
    t.push_back(Value::Int(1));
    for (int i = 0; i < 30; ++i) {
      t.push_back(Value::Int(cols[static_cast<size_t>(i)]));
    }
    out.ground.AddTuple("R", std::move(t));
  }

  // The FP program.
  FpProgram program;
  int32_t next_var = 1000;  // fresh-variable pool for R-atom padding

  // I(x) ← R(_, x, _, ...) and I(x) ← R(_, _, x, ...).
  {
    VarId x{0};
    FpRule r1;
    r1.head = RelAtom{"Ival", {x}};
    r1.body = {RAtom({{1, x}}, &next_var)};
    program.AddRule(std::move(r1));
    FpRule r2;
    r2.head = RelAtom{"Ival", {x}};
    r2.body = {RAtom({{2, x}}, &next_var)};
    program.AddRule(std::move(r2));
  }
  // RXin(x1..xn) ← Ival(x1), ..., Ival(xn).
  {
    FpRule r;
    std::vector<CTerm> head_args;
    for (int i = 0; i < n; ++i) {
      VarId xi{i};
      head_args.push_back(xi);
      r.body.push_back(RelAtom{"Ival", {xi}});
    }
    r.head = RelAtom{"RXin", std::move(head_args)};
    program.AddRule(std::move(r));
  }
  // Gate rules.
  const std::vector<Gate>& gates = circuit.gates();
  int input_index = 0;
  auto gate_pred = [](int g) { return "G" + std::to_string(g); };
  auto x_vec = [n]() {
    std::vector<CTerm> xs;
    for (int i = 0; i < n; ++i) xs.push_back(VarId{i});
    return xs;
  };
  for (size_t g = 0; g < gates.size(); ++g) {
    const Gate& gate = gates[g];
    switch (gate.type) {
      case GateType::kIn: {
        // Gg(x_j, ~x) ← RXin(~x).
        FpRule r;
        std::vector<CTerm> head_args = {CTerm(VarId{input_index})};
        auto xs = x_vec();
        head_args.insert(head_args.end(), xs.begin(), xs.end());
        r.head = RelAtom{gate_pred(static_cast<int>(g)),
                         std::move(head_args)};
        r.body = {RelAtom{"RXin", x_vec()}};
        program.AddRule(std::move(r));
        ++input_index;
        break;
      }
      case GateType::kOr:
      case GateType::kAnd: {
        // One rule per truth-table row, binding (b1, b2, b) at the row's
        // columns of R.
        int base = gate.type == GateType::kOr ? 3 : 15;
        for (int row = 0; row < 4; ++row) {
          VarId b1{100}, b2{101}, b{102};
          FpRule r;
          std::vector<CTerm> head_args = {CTerm(b)};
          auto xs = x_vec();
          head_args.insert(head_args.end(), xs.begin(), xs.end());
          r.head = RelAtom{gate_pred(static_cast<int>(g)),
                           std::move(head_args)};
          std::vector<CTerm> in1_args = {CTerm(b1)};
          auto xs1 = x_vec();
          in1_args.insert(in1_args.end(), xs1.begin(), xs1.end());
          r.body.push_back(RelAtom{gate_pred(gate.in1), std::move(in1_args)});
          std::vector<CTerm> in2_args = {CTerm(b2)};
          auto xs2 = x_vec();
          in2_args.insert(in2_args.end(), xs2.begin(), xs2.end());
          r.body.push_back(RelAtom{gate_pred(gate.in2), std::move(in2_args)});
          r.body.push_back(RAtom({{base + 3 * row, CTerm(b1)},
                                  {base + 3 * row + 1, CTerm(b2)},
                                  {base + 3 * row + 2, CTerm(b)}},
                                 &next_var));
          program.AddRule(std::move(r));
        }
        break;
      }
      case GateType::kNot: {
        for (int row = 0; row < 2; ++row) {
          VarId b1{100}, b{102};
          FpRule r;
          std::vector<CTerm> head_args = {CTerm(b)};
          auto xs = x_vec();
          head_args.insert(head_args.end(), xs.begin(), xs.end());
          r.head = RelAtom{gate_pred(static_cast<int>(g)),
                           std::move(head_args)};
          std::vector<CTerm> in1_args = {CTerm(b1)};
          auto xs1 = x_vec();
          in1_args.insert(in1_args.end(), xs1.begin(), xs1.end());
          r.body.push_back(RelAtom{gate_pred(gate.in1), std::move(in1_args)});
          r.body.push_back(RAtom({{27 + 2 * row, CTerm(b1)},
                                  {27 + 2 * row + 1, CTerm(b)}},
                                 &next_var));
          program.AddRule(std::move(r));
        }
        break;
      }
    }
  }
  // G(~x) ← G_M(b, ~x), R(0, ...); and G(~x) ← G_M(1, ~x).
  {
    int output_gate = static_cast<int>(gates.size()) - 1;
    FpRule r1;
    r1.head = RelAtom{"Gout", x_vec()};
    VarId b{100};
    std::vector<CTerm> gm_args = {CTerm(b)};
    auto xs = x_vec();
    gm_args.insert(gm_args.end(), xs.begin(), xs.end());
    r1.body.push_back(RelAtom{gate_pred(output_gate), std::move(gm_args)});
    r1.body.push_back(RAtom({{0, CTerm(Value::Int(0))}}, &next_var));
    program.AddRule(std::move(r1));

    FpRule r2;
    r2.head = RelAtom{"Gout", x_vec()};
    std::vector<CTerm> gm1_args = {CTerm(Value::Int(1))};
    auto xs2 = x_vec();
    gm1_args.insert(gm1_args.end(), xs2.begin(), xs2.end());
    r2.body.push_back(RelAtom{gate_pred(output_gate), std::move(gm1_args)});
    program.AddRule(std::move(r2));
  }
  program.set_output("Gout");
  out.query = Query::Fp(std::move(program));
  return out;
}

}  // namespace relcomp
