#include "common/sync.h"

namespace isis {

// These primitives implement the rw capability protocol, so their bodies
// are exempt from the analysis (ISIS_NO_THREAD_SAFETY_ANALYSIS on the
// declarations); the predicate lambdas still assert the inner mutex they
// run under. Every atomic operation on a slot or on writer_ is sequentially
// consistent: the reader's count-then-flag and the writer's flag-then-counts
// must not be reordered against each other (sync.h, RwMutex).

void RwMutex::BackOffForWriter(std::atomic<int>& count) {
  MutexLock lock(mu_);
  // Undo this reader's count so the writer's drain can complete; if that
  // empties the slot, the writer may be waiting for exactly this.
  if (count.fetch_sub(1) == 1) writers_cv_.NotifyOne();
  readers_cv_.Wait(lock, [this] {
    mu_.AssertHeld();
    return !writer_.load();
  });
  // Writers raise the flag only under mu_, which this thread holds: the
  // shared side is ours, and a writer arriving next will see this count.
  count.fetch_add(1);
}

void RwMutex::WakeWriter() {
  MutexLock lock(mu_);
  writers_cv_.NotifyOne();
}

bool RwMutex::ReadersDrained() const {
  for (const Slot& slot : slots_) {
    if (slot.readers.load() != 0) return false;
  }
  return true;
}

void RwMutex::LockExclusive() {
  MutexLock lock(mu_);
  ++waiting_writers_;
  // From here new readers back out (writer preference); the ones already
  // in drain, and the last to leave its slot wakes a waiting writer.
  writer_.store(true);
  writers_cv_.Wait(lock, [this] {
    mu_.AssertHeld();
    return !writer_active_ && ReadersDrained();
  });
  --waiting_writers_;
  writer_active_ = true;
}

void RwMutex::UnlockExclusive() {
  MutexLock lock(mu_);
  writer_active_ = false;
  // Writer preference: readers stay out while any writer waits, so lower
  // the flag and wake them only when none does.
  if (waiting_writers_ > 0) {
    writers_cv_.NotifyOne();
  } else {
    writer_.store(false);
    readers_cv_.NotifyAll();
  }
}

}  // namespace isis
