// Linter seed: an algorithm that takes a temporary buffer from the heap
// (std::inplace_merge; std::stable_sort and std::stable_partition do the
// same) inside a function carrying the `// pigp:steady-state` contract
// comment.  Driven via
// `ci/lint_invariants.py --must-find steady-state-alloc`.
#include <algorithm>
#include <vector>

namespace seed {

// pigp:steady-state
inline void merge_halves(std::vector<int>& v, std::size_t mid) {
  std::inplace_merge(v.begin(), v.begin() + static_cast<long>(mid), v.end());
}

}  // namespace seed
