#include "logic/qbf.h"

namespace relcomp {
namespace {

bool EvalBlocks(const Qbf& qbf, size_t block_index, int first_var,
                uint64_t assignment) {
  if (block_index == qbf.blocks.size()) {
    return qbf.matrix.Eval(assignment);
  }
  const QuantifierBlock& block = qbf.blocks[block_index];
  uint64_t combos = uint64_t{1} << block.size;
  for (uint64_t bits = 0; bits < combos; ++bits) {
    uint64_t extended = assignment | (bits << first_var);
    bool sub = EvalBlocks(qbf, block_index + 1, first_var + block.size,
                          extended);
    if (block.forall && !sub) return false;
    if (!block.forall && sub) return true;
  }
  return block.forall;
}

}  // namespace

bool Qbf::Eval() const { return EvalBlocks(*this, 0, 0, 0); }

Qbf MakeForallExists(int nx, int ny, Cnf3 matrix) {
  Qbf qbf;
  qbf.blocks = {QuantifierBlock{true, nx}, QuantifierBlock{false, ny}};
  qbf.matrix = std::move(matrix);
  return qbf;
}

Qbf MakeExistsForallExists(int nx, int ny, int nz, Cnf3 matrix) {
  Qbf qbf;
  qbf.blocks = {QuantifierBlock{false, nx}, QuantifierBlock{true, ny},
                QuantifierBlock{false, nz}};
  qbf.matrix = std::move(matrix);
  return qbf;
}

Qbf MakeForallExistsForallExists(int nx, int ny, int nz, int nw, Cnf3 matrix) {
  Qbf qbf;
  qbf.blocks = {QuantifierBlock{true, nx}, QuantifierBlock{false, ny},
                QuantifierBlock{true, nz}, QuantifierBlock{false, nw}};
  qbf.matrix = std::move(matrix);
  return qbf;
}

}  // namespace relcomp
