#include "autograd/variable.h"

#include <unordered_set>
#include <utility>

#include "common/check.h"

namespace calibre::ag {

void Variable::accumulate_grad(const tensor::Tensor& g) {
  CALIBRE_CHECK_MSG(g.rows() == value.rows() && g.cols() == value.cols(),
                    "gradient shape " << g.shape_string() << " vs value "
                                      << value.shape_string());
  if (grad.size() == 0) {
    grad = g;
  } else {
    grad.add_(g);
  }
}

void Variable::accumulate_grad(tensor::Tensor&& g) {
  CALIBRE_CHECK_MSG(g.rows() == value.rows() && g.cols() == value.cols(),
                    "gradient shape " << g.shape_string() << " vs value "
                                      << value.shape_string());
  if (grad.size() == 0) {
    grad = std::move(g);
  } else {
    grad.add_(g);
  }
}

void Variable::zero_grad() {
  if (grad.size() == 0) {
    grad = tensor::Tensor::zeros(value.rows(), value.cols());
  } else {
    grad.zero();
  }
}

namespace {

thread_local bool t_grad_enabled = true;

}  // namespace

bool grad_enabled() { return t_grad_enabled; }

NoGradGuard::NoGradGuard() : previous_(t_grad_enabled) {
  t_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { t_grad_enabled = previous_; }

VarPtr constant(tensor::Tensor value) {
  return std::make_shared<Variable>(std::move(value), /*requires=*/false);
}

VarPtr parameter(tensor::Tensor value) {
  auto v = std::make_shared<Variable>(std::move(value), /*requires=*/true);
  v->zero_grad();
  return v;
}

namespace {

// Iterative post-order DFS over parents; avoids stack overflow on deep
// graphs (e.g. many chained layers or long loss compositions).
void topo_sort(const VarPtr& root, std::vector<Variable*>& order) {
  std::unordered_set<const Variable*> visited;
  struct Frame {
    Variable* node;
    std::size_t next_parent;
  };
  std::vector<Frame> stack;
  if (visited.insert(root.get()).second) {
    stack.push_back({root.get(), 0});
  }
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      Variable* parent = frame.node->parents[frame.next_parent].get();
      ++frame.next_parent;
      if (visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }
}

}  // namespace

void backward(const VarPtr& root) {
  CALIBRE_CHECK_MSG(root->value.rows() == 1 && root->value.cols() == 1,
                    "backward() root must be scalar, got "
                        << root->value.shape_string());
  std::vector<Variable*> order;  // post-order: leaves first, root last
  topo_sort(root, order);
  root->accumulate_grad(tensor::Tensor::ones(1, 1));
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Variable* node = *it;
    if (node->backward_fn && node->grad.size() != 0 && node->requires_grad) {
      node->backward_fn(*node);
    }
  }
}

}  // namespace calibre::ag
