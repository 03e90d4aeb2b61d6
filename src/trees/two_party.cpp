#include "trees/two_party.h"

#include <algorithm>
#include <stdexcept>

#include "core/rng.h"

namespace fle {

namespace {

std::size_t count_nodes(const GameNode& node) {
  std::size_t total = 1;
  for (const auto& c : node.children) total += count_nodes(*c);
  return total;
}

int node_depth(const GameNode& node) {
  int d = 0;
  for (const auto& c : node.children) d = std::max(d, 1 + node_depth(*c));
  return d;
}

bool assures_rec(const GameNode& node, std::uint32_t mask, int bit) {
  if (node.is_leaf()) return *node.outcome == bit;
  const bool ours = (mask >> static_cast<unsigned>(node.owner)) & 1u;
  if (ours) {
    return std::any_of(node.children.begin(), node.children.end(),
                       [&](const auto& c) { return assures_rec(*c, mask, bit); });
  }
  return std::all_of(node.children.begin(), node.children.end(),
                     [&](const auto& c) { return assures_rec(*c, mask, bit); });
}

/// Pre-order traversal assigning ids and recording the assuring choice.
bool extract_rec(const GameNode& node, std::uint32_t mask, int bit, std::size_t& next_id,
                 std::vector<int>& strategy) {
  const std::size_t my_id = next_id++;
  if (node.is_leaf()) return *node.outcome == bit;
  const bool ours = (mask >> static_cast<unsigned>(node.owner)) & 1u;
  if (ours) {
    // Find a child that assures and descend into it; skip the others'
    // subtrees wholesale to keep pre-order ids aligned.
    int chosen = -1;
    for (std::size_t i = 0; i < node.children.size(); ++i) {
      if (chosen < 0 && assures_rec(*node.children[i], mask, bit)) {
        chosen = static_cast<int>(i);
        extract_rec(*node.children[i], mask, bit, next_id, strategy);
      } else {
        next_id += count_nodes(*node.children[i]);
      }
    }
    if (chosen < 0) return false;
    if (strategy.size() <= my_id) strategy.resize(my_id + 1, -1);
    strategy[my_id] = chosen;
    return true;
  }
  bool ok = true;
  for (const auto& c : node.children) {
    if (!extract_rec(*c, mask, bit, next_id, strategy)) ok = false;
  }
  return ok;
}

std::unique_ptr<GameNode> clone_with_relabel(const GameNode& node, int from, int to) {
  auto out = std::make_unique<GameNode>();
  out->outcome = node.outcome;
  out->owner = node.owner == from ? to : node.owner;
  out->children.reserve(node.children.size());
  for (const auto& c : node.children) out->children.push_back(clone_with_relabel(*c, from, to));
  return out;
}

double uniform_value_rec(const GameNode& node) {
  if (node.is_leaf()) return static_cast<double>(*node.outcome);
  double sum = 0.0;
  for (const auto& c : node.children) sum += uniform_value_rec(*c);
  return sum / static_cast<double>(node.children.size());
}

std::unique_ptr<GameNode> random_rec(int players, int depth, int max_arity, Xoshiro256& rng) {
  if (depth == 0 || (depth < 3 && rng.bernoulli(0.3))) {
    return GameTree::leaf(static_cast<int>(rng.below(2)));
  }
  const int arity = 2 + static_cast<int>(rng.below(static_cast<std::uint64_t>(max_arity - 1)));
  std::vector<std::unique_ptr<GameNode>> children;
  children.reserve(static_cast<std::size_t>(arity));
  for (int i = 0; i < arity; ++i) {
    children.push_back(random_rec(players, depth - 1, max_arity, rng));
  }
  const int owner = static_cast<int>(rng.below(static_cast<std::uint64_t>(players)));
  return GameTree::choice(owner, std::move(children));
}

}  // namespace

GameTree::GameTree(std::unique_ptr<GameNode> root, int players)
    : root_(std::move(root)), players_(players) {
  if (!root_) throw std::invalid_argument("null game tree");
  if (players_ < 1 || players_ > 31) throw std::invalid_argument("1..31 players supported");
}

std::size_t GameTree::node_count() const { return count_nodes(*root_); }
int GameTree::depth() const { return node_depth(*root_); }

std::unique_ptr<GameNode> GameTree::leaf(int outcome) {
  auto n = std::make_unique<GameNode>();
  n->outcome = outcome;
  return n;
}

std::unique_ptr<GameNode> GameTree::choice(int owner,
                                           std::vector<std::unique_ptr<GameNode>> children) {
  if (children.empty()) throw std::invalid_argument("choice node needs children");
  auto n = std::make_unique<GameNode>();
  n->owner = owner;
  n->children = std::move(children);
  return n;
}

GameTree GameTree::random(int players, int depth, int max_arity, std::uint64_t seed) {
  Xoshiro256 rng(mix64(seed ^ 0x6a0e'7362'19fa'cadeull));
  auto root = random_rec(players, depth, max_arity, rng);
  if (root->is_leaf()) {
    // Guarantee at least one move so the game is non-trivial.
    std::vector<std::unique_ptr<GameNode>> kids;
    kids.push_back(std::move(root));
    kids.push_back(GameTree::leaf(static_cast<int>(rng.below(2))));
    root = GameTree::choice(0, std::move(kids));
  }
  return GameTree(std::move(root), players);
}

double GameTree::uniform_value() const { return uniform_value_rec(*root_); }

bool GameTree::assures(std::uint32_t member_mask, int bit) const {
  return assures_rec(*root_, member_mask, bit);
}

std::vector<int> GameTree::assuring_strategy(std::uint32_t member_mask, int bit) const {
  if (!assures(member_mask, bit)) return {};
  std::vector<int> strategy(node_count(), -1);
  std::size_t id = 0;
  extract_rec(*root_, member_mask, bit, id, strategy);
  return strategy;
}

int GameTree::play(std::uint32_t member_mask, const std::vector<int>& strategy,
                   const std::vector<int>& opponent_choices) const {
  // Walk the tree maintaining pre-order ids: to know the id of a child we
  // must know subtree sizes, so recompute locally.
  const GameNode* node = root_.get();
  std::size_t node_id = 0;
  std::size_t opp = 0;
  while (!node->is_leaf()) {
    const bool ours = (member_mask >> static_cast<unsigned>(node->owner)) & 1u;
    std::size_t pick;
    if (ours) {
      const int s = node_id < strategy.size() ? strategy[node_id] : -1;
      pick = s >= 0 ? static_cast<std::size_t>(s) : 0;
    } else {
      pick = opponent_choices.empty()
                 ? 0
                 : static_cast<std::size_t>(opponent_choices[opp++ % opponent_choices.size()]) %
                       node->children.size();
    }
    pick = std::min(pick, node->children.size() - 1);
    // Advance pre-order id: 1 (this node) + sizes of skipped siblings.
    std::size_t child_id = node_id + 1;
    for (std::size_t i = 0; i < pick; ++i) child_id += count_nodes(*node->children[i]);
    node = node->children[pick].get();
    node_id = child_id;
  }
  return *node->outcome;
}

GameTree GameTree::absorb(int from, int to) const {
  return GameTree(clone_with_relabel(*root_, from, to), players_);
}

LemmaF2Result solve_two_party(const GameTree& g) {
  if (g.players() != 2) throw std::invalid_argument("two players expected");
  LemmaF2Result r;
  r.a_assures_0 = g.assures(0b01, 0);
  r.a_assures_1 = g.assures(0b01, 1);
  r.b_assures_0 = g.assures(0b10, 0);
  r.b_assures_1 = g.assures(0b10, 1);
  return r;
}

}  // namespace fle
