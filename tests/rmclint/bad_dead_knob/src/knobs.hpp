#pragma once

namespace fx {

// `rate` is read but never written anywhere: a constant posing as a knob.
struct WidgetConfig {
  int size = 4;
  double rate = 0.5;
};

inline double cost(const WidgetConfig& c) { return c.size * c.rate; }

inline double tuned() {
  WidgetConfig c;
  c.size = 8;
  return cost(c);
}

}  // namespace fx
