#include "common/sync.h"

namespace isis {

// The four primitives implement the rw capability protocol, so their bodies
// are exempt from the analysis (ISIS_NO_THREAD_SAFETY_ANALYSIS on the
// declarations); the predicate lambdas still assert the inner mutex they
// run under.

void RwMutex::LockShared() {
  MutexLock lock(mu_);
  // Writer preference: a reader arriving while a writer waits queues behind
  // it, so mutations cannot be starved by a saturating read load.
  readers_cv_.Wait(lock, [this] {
    mu_.AssertHeld();
    return !writer_active_ && waiting_writers_ == 0;
  });
  ++active_readers_;
}

void RwMutex::UnlockShared() {
  MutexLock lock(mu_);
  // Only a writer can be waiting on readers to leave.
  if (--active_readers_ == 0 && waiting_writers_ > 0) writers_cv_.NotifyOne();
}

void RwMutex::LockExclusive() {
  MutexLock lock(mu_);
  ++waiting_writers_;
  writers_cv_.Wait(lock, [this] {
    mu_.AssertHeld();
    return !writer_active_ && active_readers_ == 0;
  });
  --waiting_writers_;
  writer_active_ = true;
}

void RwMutex::UnlockExclusive() {
  MutexLock lock(mu_);
  writer_active_ = false;
  // Writer preference: readers stay blocked while any writer waits, so
  // wake them only when none does.
  if (waiting_writers_ > 0) {
    writers_cv_.NotifyOne();
  } else {
    readers_cv_.NotifyAll();
  }
}

}  // namespace isis
