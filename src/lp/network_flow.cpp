#include "lp/network_flow.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/check.hpp"

namespace pigp::lp {
namespace {

constexpr signed char kAtLower = 1;
constexpr signed char kAtUpper = -1;
constexpr signed char kInTree = 0;

/// Per column of \p program: the row holding its +1 (\p tail) and its −1
/// (\p head), -1 where absent.  False when the program is not a network
/// LP (see is_network_program).
bool network_columns(const LinearProgram& program, std::vector<int>& tail,
                     std::vector<int>& head) {
  const auto vars = static_cast<std::size_t>(program.num_variables());
  tail.assign(vars, -1);
  head.assign(vars, -1);
  for (const Variable& v : program.variables()) {
    if (v.lower != 0.0 || !(v.upper >= 0.0)) return false;
  }
  std::vector<double> sum(vars, 0.0);
  std::vector<int> touched;
  for (int r = 0; r < program.num_rows(); ++r) {
    const Row& row = program.rows()[static_cast<std::size_t>(r)];
    if (row.type != RowType::equal) return false;
    touched.clear();
    for (const auto& [var, coeff] : row.coeffs) {
      const auto j = static_cast<std::size_t>(var);
      if (std::find(touched.begin(), touched.end(), var) == touched.end()) {
        touched.push_back(var);
      }
      sum[j] += coeff;
    }
    for (const int var : touched) {
      const auto j = static_cast<std::size_t>(var);
      const double coeff = std::exchange(sum[j], 0.0);
      if (coeff == 0.0) continue;
      std::vector<int>& end = coeff == 1.0 ? tail : head;
      if ((coeff != 1.0 && coeff != -1.0) || end[j] >= 0) return false;
      end[j] = r;
    }
  }
  return true;
}

}  // namespace

void NetworkFlow::reset(int nodes) {
  PIGP_CHECK(nodes >= 0, "node count must be non-negative");
  nodes_ = nodes;
  arcs_ = 0;
  source_.clear();
  target_.clear();
  capacity_.clear();
  cost_.clear();
  supply_.assign(static_cast<std::size_t>(nodes), 0.0);
}

int NetworkFlow::add_arc(int from, int to, double capacity, double cost) {
  PIGP_CHECK(from >= 0 && from < nodes_ && to >= 0 && to < nodes_,
             "arc endpoint out of range");
  PIGP_CHECK(capacity >= 0.0, "arc capacity must be non-negative");
  // A solve appended the artificial arcs; drop them before adding more.
  const auto real = static_cast<std::size_t>(arcs_);
  source_.resize(real);
  target_.resize(real);
  capacity_.resize(real);
  source_.push_back(from);
  target_.push_back(to);
  capacity_.push_back(capacity);
  cost_.push_back(cost);
  return arcs_++;
}

void NetworkFlow::set_supply(int node, double supply) {
  PIGP_CHECK(node >= 0 && node < nodes_, "node out of range");
  supply_[static_cast<std::size_t>(node)] = supply;
}

bool NetworkFlow::find_entering_arc(double tolerance, int& entering) {
  // Block search: scan the real arcs cyclically from where the last
  // search stopped and take the most negative reduced cost of the first
  // block that has one.
  const int m = arcs_;
  const int block = std::max(10, static_cast<int>(std::sqrt(m)));
  double best = -tolerance;
  entering = -1;
  int left = block;
  for (int k = 0, e = next_arc_; k < m; ++k, e = e + 1 == m ? 0 : e + 1) {
    const auto i = static_cast<std::size_t>(e);
    const double reduced =
        state_[i] *
        (work_cost_[i] + potential_[static_cast<std::size_t>(source_[i])] -
         potential_[static_cast<std::size_t>(target_[i])]);
    if (reduced < best) {
      best = reduced;
      entering = e;
    }
    if (--left == 0 || k + 1 == m) {
      if (entering >= 0) {
        next_arc_ = e + 1 == m ? 0 : e + 1;
        return true;
      }
      left = block;
    }
  }
  return false;
}

int NetworkFlow::find_join(int u, int v) const {
  while (u != v) {
    const int du = depth_[static_cast<std::size_t>(u)];
    const int dv = depth_[static_cast<std::size_t>(v)];
    if (du >= dv) u = parent_[static_cast<std::size_t>(u)];
    if (dv >= du) v = parent_[static_cast<std::size_t>(v)];
  }
  return u;
}

void NetworkFlow::attach(int child, int parent) {
  const auto c = static_cast<std::size_t>(child);
  const auto p = static_cast<std::size_t>(parent);
  const int head = first_child_[p];
  next_sibling_[c] = head;
  prev_sibling_[c] = -1;
  if (head >= 0) prev_sibling_[static_cast<std::size_t>(head)] = child;
  first_child_[p] = child;
}

void NetworkFlow::detach(int child) {
  const auto c = static_cast<std::size_t>(child);
  const int prev = prev_sibling_[c];
  const int next = next_sibling_[c];
  if (prev >= 0) {
    next_sibling_[static_cast<std::size_t>(prev)] = next;
  } else {
    first_child_[static_cast<std::size_t>(parent_[c])] = next;
  }
  if (next >= 0) prev_sibling_[static_cast<std::size_t>(next)] = prev;
}

void NetworkFlow::derive_from_parent(int child) {
  // A tree arc has zero reduced cost: cost + π(source) − π(target).
  const auto c = static_cast<std::size_t>(child);
  const auto p = static_cast<std::size_t>(parent_[c]);
  const double cost = work_cost_[static_cast<std::size_t>(pred_[c])];
  depth_[c] = depth_[p] + 1;
  potential_[c] = up_[c] != 0 ? potential_[p] - cost : potential_[p] + cost;
}

void NetworkFlow::init_tree() {
  // Every node hangs from the root on its artificial arc.
  const int root = nodes_;
  const auto r = static_cast<std::size_t>(root);
  parent_[r] = -1;
  pred_[r] = -1;
  depth_[r] = 0;
  potential_[r] = 0.0;
  std::fill(first_child_.begin(), first_child_.end(), -1);
  for (int u = 0; u < root; ++u) {
    const auto ui = static_cast<std::size_t>(u);
    parent_[ui] = root;
    up_[ui] = source_[static_cast<std::size_t>(pred_[ui])] == u ? 1 : 0;
    attach(u, root);
    derive_from_parent(u);
  }
}

void NetworkFlow::rehang(int u_in, int v_in, int entering, int u_out) {
  // The leaving arc cut off u_out's subtree, which holds u_in.  Reverse
  // the stem u_in → … → u_out so the subtree hangs from v_in through the
  // entering arc; each stem node takes over its old child's tree arc.
  int node = u_in;
  int new_parent = v_in;
  int new_pred = entering;
  bool new_up = source_[static_cast<std::size_t>(entering)] == u_in;
  while (true) {
    const auto n = static_cast<std::size_t>(node);
    const int old_parent = parent_[n];
    const int old_pred = pred_[n];
    const bool old_up = up_[n] != 0;
    detach(node);
    parent_[n] = new_parent;
    pred_[n] = new_pred;
    up_[n] = new_up ? 1 : 0;
    attach(node, new_parent);
    if (node == u_out) break;
    new_parent = node;
    new_pred = old_pred;
    new_up = !old_up;
    node = old_parent;
  }
  // Only the re-hung subtree changed depth and potential.
  stack_.clear();
  stack_.push_back(u_in);
  while (!stack_.empty()) {
    const int c = stack_.back();
    stack_.pop_back();
    derive_from_parent(c);
    for (int k = first_child_[static_cast<std::size_t>(c)]; k >= 0;
         k = next_sibling_[static_cast<std::size_t>(k)]) {
      stack_.push_back(k);
    }
  }
}

// pigp:steady-state
SolveStatus NetworkFlow::solve(Sense sense, const NetworkOptions& options) {
  const int n = nodes_;
  const int m = arcs_;
  const int root = n;
  const auto all = static_cast<std::size_t>(m + n);
  objective_ = 0.0;
  pivots_ = 0;
  next_arc_ = 0;
  source_.resize(all);
  target_.resize(all);
  capacity_.resize(all);
  work_cost_.resize(all);
  flow_.assign(all, 0.0);
  state_.assign(all, kAtLower);
  const auto nodes = static_cast<std::size_t>(n) + 1;
  potential_.resize(nodes);
  parent_.resize(nodes);
  pred_.resize(nodes);
  up_.resize(nodes);
  depth_.resize(nodes);
  first_child_.resize(nodes);
  next_sibling_.resize(nodes);
  prev_sibling_.resize(nodes);

  double max_cost = 0.0;
  for (std::size_t e = 0; e < static_cast<std::size_t>(m); ++e) {
    work_cost_[e] = sense == Sense::maximize ? -cost_[e] : cost_[e];
    max_cost = std::max(max_cost, std::abs(cost_[e]));
  }
  // Any simple path of real arcs costs less than one artificial unit, so
  // an optimum keeps artificial flow only when no feasible flow exists.
  const double big_m = (max_cost + 1.0) * static_cast<double>(n + 1);
  double supply_sum = 0.0;
  double supply_scale = 1.0;
  for (int u = 0; u < n; ++u) {
    const auto e = static_cast<std::size_t>(m + u);
    const double b = supply_[static_cast<std::size_t>(u)];
    supply_sum += b;
    supply_scale = std::max(supply_scale, std::abs(b));
    // Initial strongly feasible tree: u → root carries a surplus (or
    // nothing), root → u a deficit, every artificial arc uncapacitated.
    source_[e] = b >= 0.0 ? u : root;
    target_[e] = b >= 0.0 ? root : u;
    capacity_[e] = kInfinity;
    work_cost_[e] = b >= 0.0 ? 0.0 : big_m;
    flow_[e] = std::abs(b);
    state_[e] = kInTree;
    pred_[static_cast<std::size_t>(u)] = m + u;
  }
  const double feasibility_tol = options.feasibility_tol * supply_scale;
  if (std::abs(supply_sum) > feasibility_tol) {
    return SolveStatus::infeasible;
  }
  init_tree();

  const double tolerance = options.eps * (1.0 + max_cost);
  int entering = -1;
  while (find_entering_arc(tolerance, entering)) {
    if (pivots_ >= options.max_iterations) return SolveStatus::iteration_limit;
    ++pivots_;
    const auto in = static_cast<std::size_t>(entering);
    // Flow runs first → second through the entering arc, then back
    // through the tree: up from second to the join, down to first.
    const bool raise = state_[in] == kAtLower;
    const int first = raise ? source_[in] : target_[in];
    const int second = raise ? target_[in] : source_[in];
    const int join = find_join(first, second);

    // Ratio test with Cunningham's rule: among blocking arcs, the last one
    // met walking the cycle from the join in the flow direction leaves, so
    // the next tree stays strongly feasible.
    double delta = capacity_[in];
    int leaving_node = -1;
    bool leaves_at_upper = false;
    bool leaves_on_first = false;
    for (int u = first; u != join; u = parent_[static_cast<std::size_t>(u)]) {
      const auto ui = static_cast<std::size_t>(u);
      const auto e = static_cast<std::size_t>(pred_[ui]);
      const bool to_lower = up_[ui] != 0;  // flow runs against the arc
      const double room = to_lower ? flow_[e] : capacity_[e] - flow_[e];
      if (room < delta) {
        delta = room;
        leaving_node = u;
        leaves_at_upper = !to_lower;
        leaves_on_first = true;
      }
    }
    for (int u = second; u != join; u = parent_[static_cast<std::size_t>(u)]) {
      const auto ui = static_cast<std::size_t>(u);
      const auto e = static_cast<std::size_t>(pred_[ui]);
      const bool to_lower = up_[ui] == 0;
      const double room = to_lower ? flow_[e] : capacity_[e] - flow_[e];
      if (room <= delta) {
        delta = room;
        leaving_node = u;
        leaves_at_upper = !to_lower;
        leaves_on_first = false;
      }
    }
    if (std::isinf(delta)) return SolveStatus::unbounded;

    if (delta > 0.0) {
      const double push = raise ? delta : -delta;
      flow_[in] += push;
      for (int u = source_[in]; u != join;
           u = parent_[static_cast<std::size_t>(u)]) {
        const auto ui = static_cast<std::size_t>(u);
        flow_[static_cast<std::size_t>(pred_[ui])] -= up_[ui] ? push : -push;
      }
      for (int u = target_[in]; u != join;
           u = parent_[static_cast<std::size_t>(u)]) {
        const auto ui = static_cast<std::size_t>(u);
        flow_[static_cast<std::size_t>(pred_[ui])] += up_[ui] ? push : -push;
      }
    }
    if (leaving_node < 0) {  // the entering arc blocks: a bound flip
      state_[in] = raise ? kAtUpper : kAtLower;
      flow_[in] = raise ? capacity_[in] : 0.0;
      continue;
    }
    const auto out = static_cast<std::size_t>(
        pred_[static_cast<std::size_t>(leaving_node)]);
    state_[in] = kInTree;
    state_[out] = leaves_at_upper ? kAtUpper : kAtLower;
    flow_[out] = leaves_at_upper ? capacity_[out] : 0.0;
    // The endpoint of the entering arc below the leaving one re-hangs.
    rehang(leaves_on_first ? first : second, leaves_on_first ? second : first,
           entering, leaving_node);
  }

  for (int u = 0; u < n; ++u) {
    if (flow_[static_cast<std::size_t>(m + u)] > feasibility_tol) {
      return SolveStatus::infeasible;
    }
  }
  for (std::size_t e = 0; e < static_cast<std::size_t>(m); ++e) {
    objective_ += cost_[e] * flow_[e];
  }
  return SolveStatus::optimal;
}

bool is_network_program(const LinearProgram& program) {
  std::vector<int> tail;
  std::vector<int> head;
  return network_columns(program, tail, head);
}

Solution solve_network_program(const LinearProgram& program,
                               const NetworkOptions& options) {
  std::vector<int> tail;
  std::vector<int> head;
  PIGP_CHECK(network_columns(program, tail, head),
             "not a network LP: need equality rows, [0, u] bounds and at "
             "most one +1 and one -1 per column");
  // Rows are nodes; a ground node closes one-sided columns and carries the
  // supply the rows imply for it.
  const int ground = program.num_rows();
  NetworkFlow net;
  net.reset(ground + 1);
  double total = 0.0;
  for (int r = 0; r < ground; ++r) {
    const double rhs = program.rows()[static_cast<std::size_t>(r)].rhs;
    net.set_supply(r, rhs);
    total += rhs;
  }
  net.set_supply(ground, -total);
  for (std::size_t j = 0; j < tail.size(); ++j) {
    const Variable& v = program.variables()[j];
    (void)net.add_arc(tail[j] >= 0 ? tail[j] : ground,
                      head[j] >= 0 ? head[j] : ground, v.upper, v.objective);
  }
  Solution solution;
  solution.status = net.solve(program.sense(), options);
  solution.iterations = net.pivots();
  if (solution.status == SolveStatus::optimal) {
    solution.objective = net.objective();
    solution.x.resize(tail.size());
    for (std::size_t j = 0; j < tail.size(); ++j) {
      solution.x[j] = net.flow(static_cast<int>(j));
    }
  }
  return solution;
}

}  // namespace pigp::lp
