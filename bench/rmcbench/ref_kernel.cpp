// The machine-speed sentinel and the calibration slice. FROZEN: their
// numbers are only comparable across commits while this file stays
// unchanged. They share no code with src/, so a change to the program under
// test cannot move them; only the machine can (hypervisor phase, frequency,
// a busy sibling hyperthread, cache pressure from neighbours). run.py
// compare warns when the two sides of a comparison disagree on the
// sentinel; the calibration slice corrects every measured window.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "rmcbench.hpp"

namespace rmcbench {

namespace {

constexpr std::uint32_t kChaseSlots = 1u << 20;  // 4 MiB of u32: about one L3 slice
constexpr std::uint32_t kChaseSteps = 4'000'000;
constexpr std::uint32_t kChurnSlots = 256;
constexpr std::uint32_t kChurnSteps = 1'000'000;
constexpr std::uint32_t kCalEvents = 4096;  // 64 KiB of heap entries: L2-resident
constexpr std::uint32_t kCalWarmSteps = 4'000;
constexpr std::uint32_t kCalSteps = 40'000;

std::uint64_t mix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One pass: a dependent pointer chase, then malloc/free churn over a
/// small working set of mixed sizes. Returns the chase's end point so the
/// compiler cannot drop it.
std::uint32_t pass(const std::vector<std::uint32_t>& next, std::vector<void*>& held,
                   std::uint64_t& s) {
  std::uint32_t at = 0;
  for (std::uint32_t i = 0; i < kChaseSteps; ++i) at = next[at];
  for (std::uint32_t i = 0; i < kChurnSteps; ++i) {
    const std::uint64_t r = mix(s);
    void*& slot = held[r % kChurnSlots];
    std::free(slot);
    slot = std::malloc(16 + (r >> 32) % 1024);
    static_cast<volatile char*>(slot)[0] = static_cast<char>(at);
  }
  return at;
}

/// A toy event loop: pop the earliest of kCalEvents pending events and
/// reschedule it at a random later time, as a discrete-event scheduler does.
class CalHeap {
 public:
  CalHeap() {
    events_.reserve(kCalEvents);
    for (std::uint32_t i = 0; i < kCalEvents; ++i) events_.push_back({mix(s_) % kSpan, i});
    std::make_heap(events_.begin(), events_.end(), later);
  }
  void steps(std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      std::pop_heap(events_.begin(), events_.end(), later);
      Event& e = events_.back();
      e.at += 1 + mix(s_) % kSpan;
      std::push_heap(events_.begin(), events_.end(), later);
    }
  }

 private:
  struct Event {
    std::uint64_t at;
    std::uint32_t id;
  };
  static constexpr std::uint64_t kSpan = 100'000;
  static bool later(const Event& a, const Event& b) { return a.at > b.at; }
  std::vector<Event> events_;
  std::uint64_t s_ = 13;
};

}  // namespace

double cal_kernel_mops() {
  static CalHeap heap;
  heap.steps(kCalWarmSteps);  // untimed: bring the heap back into cache
  const auto t0 = std::chrono::steady_clock::now();
  heap.steps(kCalSteps);
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(kCalSteps) / std::chrono::duration<double>(t1 - t0).count() / 1e6;
}

double ref_kernel_mops() {
  // Sattolo's algorithm: one cycle through every slot, so the chase visits
  // all of them in a cache-hostile order.
  std::vector<std::uint32_t> next(kChaseSlots);
  for (std::uint32_t i = 0; i < kChaseSlots; ++i) next[i] = i;
  std::uint64_t s = 42;
  for (std::uint32_t i = kChaseSlots - 1; i > 0; --i) {
    const auto j = static_cast<std::uint32_t>(mix(s) % i);
    std::swap(next[i], next[j]);
  }
  std::vector<void*> held(kChurnSlots, nullptr);

  (void)pass(next, held, s);  // warm-up: caches, TLB and the malloc arena
  const auto t0 = std::chrono::steady_clock::now();
  (void)pass(next, held, s);
  const auto t1 = std::chrono::steady_clock::now();

  for (void* p : held) std::free(p);
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(kChaseSteps + kChurnSteps) / secs / 1e6;
}

}  // namespace rmcbench
