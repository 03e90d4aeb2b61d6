#pragma once
// Flat FIFO inbox: a power-of-two ring buffer that replaces the per-link
// std::deque on the engines' hot path.
//
// The unidirectional ring gives every processor exactly one inbound link, so
// its pending messages form one contiguous FIFO; the graph engine keeps one
// FlatQueue per link.  Unlike std::deque (which heap-allocates its chunk map
// eagerly and on every growth), a FlatQueue allocates only when a push finds
// the buffer full, and clear()/pop never release memory — a reused engine
// (RingEngine::reset and friends) reaches a steady state where no delivery
// touches the allocator.
//
// head_/tail_ are monotonically increasing 64-bit counters; the slot of
// logical index i is slots_[i & mask_] with mask_ = capacity - 1 (capacity a
// power of two), so push/pop are an assignment plus an increment.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fle {

template <typename T>
class FlatQueue {
 public:
  FlatQueue() = default;

  [[nodiscard]] bool empty() const { return head_ == tail_; }
  [[nodiscard]] std::size_t size() const { return static_cast<std::size_t>(tail_ - head_); }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Drops all pending entries.  Memory (and, for non-trivial T, the slots'
  /// own capacity) is retained for reuse.
  void clear() { head_ = tail_ = 0; }

  [[nodiscard]] T& front() { return slots_[head_ & mask_]; }
  [[nodiscard]] const T& front() const { return slots_[head_ & mask_]; }

  void push_back(T value) {
    if (size() == slots_.size()) grow();
    slots_[tail_++ & mask_] = std::move(value);
  }

  /// Moves the front entry out (the slot keeps its moved-from shell so its
  /// capacity is recycled by a later push).  Precondition: !empty().
  T pop_front() { return std::move(slots_[head_++ & mask_]); }

 private:
  void grow() {
    const std::size_t count = size();
    const std::size_t next_capacity = slots_.empty() ? kInitialCapacity : slots_.size() * 2;
    std::vector<T> next(next_capacity);
    for (std::size_t i = 0; i < count; ++i) {
      next[i] = std::move(slots_[(head_ + i) & mask_]);
    }
    slots_ = std::move(next);
    mask_ = next_capacity - 1;
    head_ = 0;
    tail_ = count;
  }

  static constexpr std::size_t kInitialCapacity = 8;

  std::vector<T> slots_;
  std::uint64_t mask_ = 0;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
};

/// A *column* of fixed-capacity power-of-two ring buffers sharing one
/// contiguous backing array: cell i's slots live at [i << shift, (i+1) <<
/// shift) and its pending entries are indexed by monotonic per-cell
/// head/tail counters under a common mask (DESIGN.md §10).  The counters
/// are stored interleaved — ht_[2i] is cell i's head, ht_[2i+1] its tail —
/// because every pop reads both and every push reads both (full check +
/// slot index, through View): pairing them puts each cell's control state on one cache
/// line instead of two.
///
/// This is the SoA counterpart of a vector<FlatQueue>: where the latter
/// scatters one allocation (plus a 5-word control block) per cell across
/// the heap, the column keeps every queue's storage and bookkeeping in
/// three flat arrays, so the lane engines' deliver/receive hot loop walks
/// contiguous memory with exactly one predictable full-check branch per
/// push.  The price of the shared layout is uniform capacity: grow() is
/// outlined and re-lays *every* cell at double the capacity (rare — after
/// the first trial establishes the high-water mark the steady state never
/// allocates, which tests/test_alloc_free.cpp enforces).
template <typename T>
class RingBufferColumn {
 public:
  RingBufferColumn() = default;

  /// (Re)shapes the column to `cells` queues, all empty, capacity reset to
  /// the initial minimum.  Not for hot paths.
  void configure(std::size_t cells) {
    cells_ = cells;
    shift_ = kInitialShift;
    mask_ = (std::size_t{1} << shift_) - 1;
    data_.assign(cells_ << shift_, T{});
    ht_.assign(cells_ * 2, 0);
  }

  [[nodiscard]] std::size_t size(std::size_t cell) const {
    return static_cast<std::size_t>(ht_[cell * 2 + 1] - ht_[cell * 2]);
  }

  /// Empties one cell (its share of the backing array is retained).
  void clear_cell(std::size_t cell) { ht_[cell * 2] = ht_[cell * 2 + 1] = 0; }

  /// Raw cursors into the column: the lane engines' delivery loops push and
  /// pop through one of these, cached in their per-trial register file, so
  /// no control field is reloaded per delivery and the rare grow() stays
  /// outside the loop (grow_view()).  ht[2i] is cell i's head counter, ht[2i+1] its
  /// tail.  Invalidated by configure() and grow() (data moves and
  /// shift/mask change; ht points at a stable vector but its *values* are
  /// rewritten) — re-view() after either.
  struct View {
    T* data = nullptr;
    std::uint64_t* ht = nullptr;
    std::size_t shift = 0;
    std::size_t mask = 0;
    std::size_t cap = 0;
  };
  [[nodiscard]] View view() { return {data_.data(), ht_.data(), shift_, mask_, mask_ + 1}; }

  /// Doubles every cell's capacity (outlined cold path for View users whose
  /// push found the cell full).  Returns the refreshed view.
  [[gnu::noinline]] View grow_view() {
    grow();
    return view();
  }

 private:
  [[gnu::noinline]] void grow() {
    const std::size_t next_shift = shift_ + 1;
    std::vector<T> next(cells_ << next_shift);
    for (std::size_t cell = 0; cell < cells_; ++cell) {
      const std::size_t count = size(cell);
      for (std::size_t i = 0; i < count; ++i) {
        next[(cell << next_shift) + i] =
            std::move(data_[(cell << shift_) + ((ht_[cell * 2] + i) & mask_)]);
      }
      ht_[cell * 2] = 0;
      ht_[cell * 2 + 1] = count;
    }
    data_ = std::move(next);
    shift_ = next_shift;
    mask_ = (std::size_t{1} << shift_) - 1;
  }

  static constexpr std::size_t kInitialShift = 3;  ///< 8 slots per cell

  std::vector<T> data_;
  std::vector<std::uint64_t> ht_;  ///< interleaved per-cell {head, tail} pairs
  std::size_t cells_ = 0;
  std::size_t shift_ = kInitialShift;
  std::size_t mask_ = (std::size_t{1} << kInitialShift) - 1;
};

}  // namespace fle
