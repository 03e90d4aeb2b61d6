#pragma once
// Coalition placements and honest segments (paper Definition 3.1, Figure 1).
//
// A coalition C = {a_1 < a_2 < ... < a_k} of ring positions partitions the
// honest processors into honest segments I_j (the maximal runs of honest
// processors between consecutive coalition members); l_j = |I_j| is the
// distance from a_j to a_{j+1} minus one.  The attacks are parameterized by
// placements:
//  * consecutive      — the case analyzed by Abraham et al. (Claim D.1)
//  * equally spaced   — Lemma 4.1 / Theorem 4.2 (needs l_j <= k-1)
//  * Bernoulli(p)     — Theorem C.1's randomized model
//  * cubic staircase  — Theorem 4.3's l_k <= k-1, l_i <= l_{i+1} + k-1
//                       profile with sum l_i = n-k

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/types.h"
#include "sim/arena.h"

namespace fle {

class Coalition {
 public:
  /// Members are deduplicated, sorted and validated against [0, n).
  Coalition(int n, std::vector<ProcessorId> members);

  /// k consecutive positions starting at `start`.
  static Coalition consecutive(int n, int k, ProcessorId start = 1);

  /// k positions spread as evenly as possible; first member at `first`
  /// (default 1 keeps the origin honest, as the attack analyses assume).
  static Coalition equally_spaced(int n, int k, ProcessorId first = 1);

  /// Every processor is an adversary independently with probability p
  /// (Theorem C.1's randomized model).  May produce any k including 0.
  static Coalition bernoulli(int n, double p, std::uint64_t seed);

  /// Theorem 4.3's staircase: segment lengths built back-to-front with
  /// l_{k-1} <= k-1 and steps of at most k-1, summing to n-k (the relaxed
  /// constraints l_k <= k-1, l_i <= l_{i+1}+k-1 of Section 4).  Throws if k
  /// is too small to cover the ring (see cubic_min_k).
  static Coalition cubic_staircase(int n, int k, ProcessorId first = 1);

  /// Smallest k such that the staircase profile can reach sum n-k, i.e.
  /// (k-1)k(k+1)/2 >= n-k; this is Theta(n^(1/3)) (= ~2 n^(1/3) with the
  /// paper's slack).
  static int cubic_min_k(int n);

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int k() const { return static_cast<int>(members_.size()); }
  [[nodiscard]] const std::vector<ProcessorId>& members() const { return members_; }
  [[nodiscard]] bool contains(ProcessorId p) const;
  /// Index j of member p in ring order, or -1.
  [[nodiscard]] int index_of(ProcessorId p) const;

  /// l_j for every member j (Definition 3.1): the number of honest
  /// processors strictly between member j and the next member (cyclic; a
  /// lone member's next member is itself, so its l_0 = n - 1).
  [[nodiscard]] std::vector<int> segment_lengths() const;
  [[nodiscard]] int max_segment_length() const;
  [[nodiscard]] int min_segment_length() const;

  /// Lemma 4.1's precondition: every honest segment has l_j <= k-1.
  [[nodiscard]] bool rushing_precondition_holds() const;

  /// Figure 1 rendering: members and segment lengths around the ring.
  [[nodiscard]] std::string render() const;

 private:
  int n_;
  std::vector<ProcessorId> members_;
  std::vector<char> is_member_;
};

/// Builds the deviated profile (P_{V-C}, P'_C) for any runtime family:
/// honest strategies from `protocol` everywhere except coalition members,
/// which get `deviation`'s adversaries (pass deviation == nullptr for the
/// honest profile).  Every strategy is emplaced through the
/// emplace_strategy / emplace_adversary factories, processor p's into
/// `arenas[p]` — or every processor's into `arenas[0]` when the span holds
/// a single arena — and the non-owning profile is written into `out`, whose
/// capacity is reused across trials.  The caller owns the rewind cadence:
/// rewind the arenas before each compose, and keep them alive for as long
/// as the profile runs.
///
/// One arena per processor is for runtimes that run every processor on its
/// own thread (ThreadedRuntime): an arena is single-threaded, and a
/// strategy may emplace into its arena mid-run.
template <typename Protocol, typename Deviation, typename Strategy>
void compose_profile_into(const Protocol& protocol, const Deviation* deviation, int n,
                          std::span<StrategyArena> arenas, std::vector<Strategy*>& out) {
  if (arenas.size() != 1 && arenas.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("compose_profile_into needs one arena or one per processor");
  }
  out.clear();
  out.reserve(static_cast<std::size_t>(n));
  for (ProcessorId p = 0; p < n; ++p) {
    StrategyArena& arena = arenas[arenas.size() == 1 ? 0 : static_cast<std::size_t>(p)];
    if (deviation != nullptr && deviation->coalition().contains(p)) {
      out.push_back(deviation->emplace_adversary(arena, p, n));
    } else {
      out.push_back(protocol.emplace_strategy(arena, p, n));
    }
  }
}

/// Every processor's strategy in the one `arena` (single-threaded runtimes).
template <typename Protocol, typename Deviation, typename Strategy>
void compose_profile_into(const Protocol& protocol, const Deviation* deviation, int n,
                          StrategyArena& arena, std::vector<Strategy*>& out) {
  compose_profile_into(protocol, deviation, n, std::span<StrategyArena>(&arena, 1), out);
}

}  // namespace fle
