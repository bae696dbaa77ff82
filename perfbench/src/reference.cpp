#include "reference.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

using emutile::CellId;
using emutile::CellKind;
using emutile::Netlist;

ReferenceModel::ReferenceModel(const Netlist& nl) : nl_(&nl) {
  // Level of every net: sources (inputs, constants, flip-flop outputs) are
  // level 0, a LUT output is one above its deepest input. Resolved with an
  // explicit stack so deep designs cannot overflow the call stack.
  std::vector<int> level(nl.net_bound(), -1);
  std::vector<CellId> luts;
  for (const CellId id : nl.live_cells()) {
    const emutile::Cell& c = nl.cell(id);
    if (c.kind == CellKind::kLut) luts.push_back(id);
    else if (c.kind == CellKind::kDff) dffs_.push_back(id);
    if (c.kind != CellKind::kLut && c.output.valid())
      level[c.output.value()] = 0;
  }
  std::vector<CellId> stack;
  for (const CellId root : luts) {
    stack.push_back(root);
    while (!stack.empty()) {
      const emutile::Cell& c = nl.cell(stack.back());
      if (level[c.output.value()] >= 0) {
        stack.pop_back();
        continue;
      }
      int deepest = 0;
      bool ready = true;
      for (const emutile::NetId in : c.inputs) {
        if (level[in.value()] < 0) {
          ready = false;
          if (stack.size() > luts.size())
            throw std::runtime_error("combinational cycle in netlist");
          stack.push_back(nl.net(in).driver);
        } else {
          deepest = std::max(deepest, level[in.value()]);
        }
      }
      if (ready) {
        level[c.output.value()] = deepest + 1;
        stack.pop_back();
      }
    }
  }
  std::stable_sort(luts.begin(), luts.end(), [&](CellId a, CellId b) {
    return level[nl.cell(a).output.value()] < level[nl.cell(b).output.value()];
  });
  luts_ = std::move(luts);
  value_.assign(nl.net_bound(), 0);
  state_.assign(dffs_.size(), 0);
  outputs_.assign(nl.primary_outputs().size(), 0);
  for (const CellId id : nl.live_cells())
    if (nl.cell(id).kind == CellKind::kConst1)
      value_[nl.cell(id).output.value()] = 1;
}

void ReferenceModel::reset() { std::fill(state_.begin(), state_.end(), 0); }

const std::vector<std::uint8_t>& ReferenceModel::step(
    const emutile::Pattern& inputs) {
  const auto& pis = nl_->primary_inputs();
  if (inputs.size() != pis.size())
    throw std::runtime_error("pattern width does not match the inputs");
  for (std::size_t i = 0; i < pis.size(); ++i)
    value_[nl_->cell(pis[i]).output.value()] = inputs[i] ? 1 : 0;
  for (std::size_t i = 0; i < dffs_.size(); ++i)
    value_[nl_->cell(dffs_[i]).output.value()] = state_[i];
  for (const CellId id : luts_) {
    const emutile::Cell& c = nl_->cell(id);
    unsigned minterm = 0;
    for (std::size_t pin = 0; pin < c.inputs.size(); ++pin)
      minterm |= static_cast<unsigned>(value_[c.inputs[pin].value()]) << pin;
    value_[c.output.value()] = c.function.bit(minterm) ? 1 : 0;
  }
  const auto& pos = nl_->primary_outputs();
  for (std::size_t i = 0; i < pos.size(); ++i)
    outputs_[i] = value_[nl_->cell(pos[i]).inputs[0].value()];
  for (std::size_t i = 0; i < dffs_.size(); ++i)
    state_[i] = value_[nl_->cell(dffs_[i]).inputs[0].value()];
  return outputs_;
}

ReferenceVerdict reference_compare(const Netlist& dut, const Netlist& golden,
                                   std::span<const emutile::Pattern> patterns) {
  ReferenceModel d(dut), g(golden);
  const std::size_t shared = std::min(dut.primary_outputs().size(),
                                      golden.primary_outputs().size());
  ReferenceVerdict verdict;
  for (std::size_t cycle = 0; cycle < patterns.size(); ++cycle) {
    const std::vector<std::uint8_t>& od = d.step(patterns[cycle]);
    const std::vector<std::uint8_t>& og = g.step(patterns[cycle]);
    for (std::size_t o = 0; o < shared; ++o) {
      if (od[o] != og[o]) {
        verdict.detected = true;
        verdict.first_fail_cycle = cycle;
        verdict.failing_output = o;
        return verdict;
      }
    }
  }
  return verdict;
}

}  // namespace perfbench
