// Retirement and versioned publication for the serving layer.
//
// The snapshot mechanism (Matrix/Vector/Graph::snapshot) hands immutable
// shared_ptr<const T> views to concurrent readers, so reference counting
// already keeps a version alive exactly as long as someone reads it. What
// the limbo adds is *where* the last free happens: a displaced version is
// parked here instead of being dropped by whichever reader lets go last, so
// a multi-MiB graph (plus its cached transpose, degrees, ...) is torn down
// on the publisher's thread, never on a request's.
//
// Protocol:
//   * Versioned::publish installs the new version, parks the displaced one
//     with Epoch::retire, then runs Epoch::drain.
//   * Epoch::drain frees every limbo entry whose only remaining owner is the
//     limbo itself (use_count() == 1). That count cannot rise again: acquire
//     hands out only the current version, so nobody can reach a retired one
//     except through a reference it already holds.
//   * The Service drops a request's job closure (and the snapshot it
//     captured) the moment the request reaches a terminal state, so a
//     finished job the client never released pins nothing.
//
// Retained memory is therefore bounded by the versions live requests still
// reference, plus those freed at the next publish — not by publish rate x
// uptime. Drain is also safe to call directly (quiesce, tests).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace gb::platform {

class Epoch {
 public:
  /// Park a displaced snapshot until a drain finds the limbo holds its last
  /// reference.
  static void retire(std::shared_ptr<const void> p) {
    if (!p) return;
    std::lock_guard<std::mutex> lk(limbo_mutex());
    limbo().push_back(std::move(p));
  }

  /// Free every retired snapshot nothing else references. Returns the
  /// number of entries freed. Safe from any thread, any time; O(limbo).
  static std::size_t drain() {
    std::vector<std::shared_ptr<const void>> freed;
    {
      std::lock_guard<std::mutex> lk(limbo_mutex());
      auto& l = limbo();
      auto keep = l.begin();
      for (auto it = l.begin(); it != l.end(); ++it) {
        if (it->use_count() == 1)
          freed.push_back(std::move(*it));  // drops outside the lock
        else
          *keep++ = std::move(*it);
      }
      l.erase(keep, l.end());
    }
    return freed.size();  // destructors ran when `freed` goes out of scope
  }

  /// Entries currently parked (test/stats hook).
  static std::size_t limbo_size() {
    std::lock_guard<std::mutex> lk(limbo_mutex());
    return limbo().size();
  }

 private:
  static std::mutex& limbo_mutex() {
    static std::mutex m;
    return m;
  }
  static std::vector<std::shared_ptr<const void>>& limbo() {
    static std::vector<std::shared_ptr<const void>> l;
    return l;
  }
};

/// A published, versioned value: writers install new immutable snapshots
/// with publish(); readers acquire the current one. The displaced snapshot
/// is retired (not dropped) so in-flight readers keep a stable view and the
/// final free runs on the publisher's thread — writers never block readers,
/// and readers never block writers.
template <typename T>
class Versioned {
 public:
  Versioned() = default;
  explicit Versioned(std::shared_ptr<const T> initial)
      : cur_(std::move(initial)) {}

  /// Install `next` as the current version, park the previous one in the
  /// limbo, and drain: every retired version no reader still holds is freed
  /// here, on the caller's thread.
  void publish(std::shared_ptr<const T> next) {
    std::shared_ptr<const T> old;
    {
      std::lock_guard<std::mutex> lk(m_);
      old = std::move(cur_);
      cur_ = std::move(next);
      ++version_;
    }
    Epoch::retire(std::shared_ptr<const void>(std::move(old)));
    Epoch::drain();
  }

  /// Acquire the current version; the shared_ptr keeps it alive for as long
  /// as the caller holds it, even across later publishes.
  [[nodiscard]] std::shared_ptr<const T> acquire() const {
    std::lock_guard<std::mutex> lk(m_);
    return cur_;
  }

  [[nodiscard]] std::uint64_t version() const noexcept {
    std::lock_guard<std::mutex> lk(m_);
    return version_;
  }

 private:
  mutable std::mutex m_;
  std::shared_ptr<const T> cur_;
  std::uint64_t version_ = 0;
};

}  // namespace gb::platform
