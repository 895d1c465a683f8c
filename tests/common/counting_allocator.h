// Counting replacement of the global allocation functions, for tests that
// prove a code path never allocates. The replacement lives in its own
// translation unit (counting_allocator.cpp), so no caller can inline its
// malloc/free pairing next to a new-expression. Link it into exactly one
// test binary: the replacement is process-wide.
#pragma once

#include <cstdint>

namespace bb::counting_allocator {

// Global operator new calls (every form) since process start.
std::uint64_t Allocations();
// Bytes those calls asked for.
std::uint64_t AllocatedBytes();

}  // namespace bb::counting_allocator
