#pragma once

#include <functional>

namespace fx {

struct InnerConfig {
  int depth = 1;
};

// Every field below is written somewhere: by a designated initializer, by
// a member assignment, through a nested path, or from a test. Nested
// types, static constants and member functions are not fields.
struct GadgetBehavior {
  enum class Mode { quiet, loud };
  static constexpr int kLimit = 3;
  Mode mode = Mode::quiet;
  InnerConfig inner{};
  int width = 2;
  std::function<int(int)> scale;
  int area() const { return width * kLimit; }
};

// A cost table whose every field some profile sets.
struct GadgetCosts {
  int build_ns = 10;
  int ring_ns = 5;
};

GadgetBehavior make_gadget();
GadgetCosts fast_gadget_costs();

}  // namespace fx
