#pragma once
// Process-wide heap allocation counter (alloc_count.cpp replaces the global
// operator new, the same counting shim the repository's bench harness uses).

#include <cstdint>

namespace perfbench {

/// Allocations made through operator new since process start, all threads.
std::uint64_t allocation_count();

}  // namespace perfbench
