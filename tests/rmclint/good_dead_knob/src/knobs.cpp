#include "knobs.hpp"

namespace fx {

GadgetBehavior make_gadget() {
  GadgetBehavior g{.mode = GadgetBehavior::Mode::loud};
  g.inner.depth = 4;
  g.scale = [](int x) { return 2 * x; };
  return g;
}

GadgetCosts fast_gadget_costs() {
  GadgetCosts c{.build_ns = 2};
  c.ring_ns = 1;
  return c;
}

}  // namespace fx
