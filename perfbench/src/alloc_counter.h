// Heap-allocation counter for the per-operation alloc.* metrics. The
// benchmark binary replaces the global operator new/delete (not the
// library); counting is off except inside CountDuring, so timed calls pay
// one predictable branch per allocation. Traced runs count a sample of
// calls whose times they do not use, so the counting never lands in a
// measured time.
#pragma once

#include <cstdint>

namespace perfbench::alloc {

struct Counts {
  int64_t count = 0;
  int64_t bytes = 0;

  Counts& operator+=(const Counts& other) {
    count += other.count;
    bytes += other.bytes;
    return *this;
  }
};

void Enable(bool on);
Counts Read();

/// The allocations `f` makes (every thread's, while it runs).
template <typename F>
Counts CountDuring(F&& f) {
  const Counts before = Read();
  Enable(true);
  f();
  Enable(false);
  const Counts after = Read();
  return Counts{after.count - before.count, after.bytes - before.bytes};
}

}  // namespace perfbench::alloc
