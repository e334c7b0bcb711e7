#include "../src/knobs.hpp"

namespace fx {

int wide_area() {
  GadgetBehavior g = make_gadget();
  g.width += 3;
  return g.area();
}

}  // namespace fx
