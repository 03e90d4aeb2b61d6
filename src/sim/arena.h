#pragma once
// StrategyArena: a monotonic bump allocator with per-trial rewind.
//
// One execution needs n short-lived strategy objects; building them with
// make_unique puts n allocator round-trips on every trial.  An arena-reusing
// worker instead placement-news strategies into chunks that survive across
// trials: rewind() runs the destructors (in reverse construction order) and
// resets the bump pointer, so the next trial's emplace calls reuse the same
// memory.  After the first trial of a scenario the arena is allocation-free.
//
// Strategies whose state is sized by n (share vectors, reveal matrices)
// take it from array<T>(count): a value-initialized span carved from the
// same chunks and released by the same rewind, so that state stops costing
// an allocation per trial too.
//
// emplace() is the only way a strategy is built: every protocol and
// deviation factory (emplace_strategy / emplace_adversary) constructs into
// an arena, and a wrapping strategy emplaces the strategy it wraps into the
// same arena and keeps a raw pointer to it.
//
// An arena is single-threaded.  A strategy may keep emplacing into the
// arena it was built in while it runs (IndexingStrategy builds its inner
// strategy once it learns its position), so a runtime that runs processors
// on separate threads (ThreadedRuntime) needs one arena per processor.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace fle {

class StrategyArena {
 public:
  StrategyArena() = default;
  ~StrategyArena() { rewind(); }

  StrategyArena(const StrategyArena&) = delete;
  StrategyArena& operator=(const StrategyArena&) = delete;

  /// Constructs a T inside the arena.  Destroyed at the next rewind().
  template <typename T, typename... Args>
  T* emplace(Args&&... args) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "over-aligned strategies need a dedicated allocation path");
    void* slot = allocate(sizeof(T), alignof(T));
    T* object = new (slot) T(std::forward<Args>(args)...);
    finalizers_.push_back({object, [](void* p) { static_cast<T*>(p)->~T(); }});
    return object;
  }

  /// A value-initialized array of `count` Ts inside the arena, valid until
  /// the next rewind().  No destructor runs, hence the trivial-destructor
  /// requirement.
  template <typename T>
  std::span<T> array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena arrays are released without running destructors");
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "over-aligned arrays need a dedicated allocation path");
    if (count == 0) return {};
    if (count > SIZE_MAX / sizeof(T)) throw std::bad_array_new_length();
    T* first = static_cast<T*>(allocate(sizeof(T) * count, alignof(T)));
    std::uninitialized_value_construct_n(first, count);
    return {first, count};
  }

  /// Destroys every object (reverse construction order) and resets the bump
  /// pointer.  Chunk memory and bookkeeping capacity are retained.
  void rewind() {
    for (auto it = finalizers_.rbegin(); it != finalizers_.rend(); ++it) {
      it->destroy(it->object);
    }
    finalizers_.clear();
    for (Chunk& chunk : chunks_) chunk.used = 0;
    chunk_cursor_ = 0;
  }

  [[nodiscard]] std::size_t live_objects() const { return finalizers_.size(); }
  [[nodiscard]] std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Chunk& chunk : chunks_) total += chunk.size;
    return total;
  }

 private:
  struct Finalizer {
    void* object;
    void (*destroy)(void*);
  };
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static constexpr std::size_t kChunkBytes = 16 * 1024;

  void* allocate(std::size_t size, std::size_t align) {
    for (;;) {
      if (chunk_cursor_ < chunks_.size()) {
        Chunk& chunk = chunks_[chunk_cursor_];
        const std::size_t aligned = (chunk.used + align - 1) & ~(align - 1);
        if (aligned + size <= chunk.size) {
          chunk.used = aligned + size;
          return chunk.data.get() + aligned;
        }
        ++chunk_cursor_;
        continue;
      }
      Chunk chunk;
      chunk.size = size + align > kChunkBytes ? size + align : kChunkBytes;
      chunk.data = std::make_unique<std::byte[]>(chunk.size);
      chunks_.push_back(std::move(chunk));
    }
  }

  std::vector<Chunk> chunks_;
  std::size_t chunk_cursor_ = 0;
  std::vector<Finalizer> finalizers_;
};

}  // namespace fle
