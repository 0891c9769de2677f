#pragma once

/// \file part_tally.hpp
/// Sparse per-part sums for one vertex's neighbourhood vote.
///
/// The layering's majority label (§2.2) and the refinement's best move
/// (§2.4) both sum a vertex's edge weights per neighbouring partition.  A
/// dense P-length buffer costs O(P) per vertex to clear and scan even when
/// the vertex touches two partitions; this tally records which parts it
/// touched, so a vote costs O(deg + parts touched) and clear() puts it back
/// to all-zero in the same time.  Each part's sum accumulates in the order
/// add() is called, exactly as a dense buffer would.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/partition.hpp"

namespace pigp::core {

class PartTally {
 public:
  /// Size for \p parts partitions.  O(1) when the size is unchanged; a
  /// size change re-creates the (all-zero) arrays.  Must be called between
  /// votes, never with parts touched.
  void resize(std::size_t parts) {
    if (sum_.size() == parts) return;
    sum_.assign(parts, 0.0);
    mark_.assign(parts, 0);
    touched_.assign(parts + 1, 0);  // add() writes one past the touched
    count_ = 0;
  }

  void add(graph::PartId q, double weight) {
    const auto qi = static_cast<std::size_t>(q);
    // Branch-free first touch (whether a neighbour's part is new is hard
    // to predict): q always lands past the touched parts, and the count
    // only takes it in when q was unmarked.
    touched_[count_] = q;
    count_ += 1U - mark_[qi];
    mark_[qi] = 1;
    sum_[qi] += weight;
  }

  /// Parts added to since the last clear(), in first-touch order.  An
  /// untouched part's sum is 0.
  [[nodiscard]] std::span<const graph::PartId> touched() const {
    return {touched_.data(), count_};
  }
  [[nodiscard]] double sum(graph::PartId q) const {
    return sum_[static_cast<std::size_t>(q)];
  }

  /// Zero every touched part: O(parts touched).
  void clear() {
    for (const graph::PartId q : touched()) {
      sum_[static_cast<std::size_t>(q)] = 0.0;
      mark_[static_cast<std::size_t>(q)] = 0;
    }
    count_ = 0;
  }

 private:
  std::vector<double> sum_;
  std::vector<std::uint8_t> mark_;
  std::vector<graph::PartId> touched_;  ///< first count_ entries are live
  std::size_t count_ = 0;
};

}  // namespace pigp::core
