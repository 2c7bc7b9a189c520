// Annotated mutex types for Clang Thread Safety Analysis. std::mutex and
// std::lock_guard carry no capability attributes on libstdc++, so a field
// marked SOS_GUARDED_BY(std_mu) could never be proven locked; these thin
// wrappers are attribute-complete stand-ins with identical semantics and
// zero overhead. All shared mutable state in this repo (VerifyMemo shards,
// the replay engine's Kahn queue) locks through these types.
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace sos::util {

/// std::mutex with capability annotations. Lock through MutexLock (or the
/// raw lock()/unlock() pair inside annotated functions); condition waits go
/// through wait(), which names *this* mutex as the required capability so
/// the analysis can match it against the caller's held set.
class SOS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SOS_ACQUIRE() { mu_.lock(); }
  void unlock() SOS_RELEASE() { mu_.unlock(); }
  bool try_lock() SOS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Block on `cv` until notified; the caller must hold this mutex. The
  /// wait releases and retakes it internally (condition_variable_any over
  /// the BasicLockable surface above); to the analysis the capability is
  /// simply held across the call, which matches what the caller observes.
  void wait(std::condition_variable_any& cv) SOS_REQUIRES(this)
      SOS_NO_THREAD_SAFETY_ANALYSIS {
    cv.wait(*this);
  }

 private:
  std::mutex mu_;
};

/// RAII lock over Mutex, with the manual unlock()/lock() pair the replay
/// engine's worker loop needs (drop the lock around a task body, retake it
/// to update the ready set). The analysis tracks the held/released state
/// through those calls, so a path that returns while unlocked-but-destructing
/// or double-unlocks is a compile error under -Wthread-safety.
class SOS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SOS_ACQUIRE(mu) : mu_(mu), held_(true) { mu_.lock(); }
  ~MutexLock() SOS_RELEASE() {
    if (held_) mu_.unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporarily drop the lock (long computation; never while iterating
  /// guarded state).
  void unlock() SOS_RELEASE() {
    held_ = false;
    mu_.unlock();
  }
  /// Retake a dropped lock.
  void lock() SOS_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_;
};

}  // namespace sos::util
