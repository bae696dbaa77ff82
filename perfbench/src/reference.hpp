#pragma once
/// \file reference.hpp
/// Reference evaluator: a levelized LUT/DFF evaluation written against the
/// Netlist accessors only (no emutile::Simulator), so the benchmark can check
/// the debugger's verdicts with an independent model of the same semantics:
/// flip-flops reset to 0; each cycle applies the inputs, settles the LUTs,
/// samples the primary outputs, then clocks every flip-flop.

#include <cstddef>
#include <cstdint>
#include <span>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/patterns.hpp"

namespace perfbench {

class ReferenceModel {
 public:
  explicit ReferenceModel(const emutile::Netlist& nl);

  void reset();
  /// One clock cycle; returns the primary-output values sampled before the
  /// clock edge.
  const std::vector<std::uint8_t>& step(const emutile::Pattern& inputs);

 private:
  const emutile::Netlist* nl_;
  std::vector<emutile::CellId> luts_;  ///< sorted by logic level
  std::vector<emutile::CellId> dffs_;
  std::vector<std::uint8_t> value_;    ///< by net id
  std::vector<std::uint8_t> state_;    ///< by position in dffs_
  std::vector<std::uint8_t> outputs_;
};

struct ReferenceVerdict {
  bool detected = false;
  std::size_t first_fail_cycle = 0;
  std::size_t failing_output = 0;
};

/// First cycle and output (by position, over the outputs both share) where
/// `dut` and `golden` disagree on `patterns`.
[[nodiscard]] ReferenceVerdict reference_compare(
    const emutile::Netlist& dut, const emutile::Netlist& golden,
    std::span<const emutile::Pattern> patterns);

}  // namespace perfbench
