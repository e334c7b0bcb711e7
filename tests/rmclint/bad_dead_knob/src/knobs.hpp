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

// A cost table is in scope too: `hop_ns` is set by a profile, `ack_ns`
// by nobody.
struct LinkCosts {
  int hop_ns = 100;
  int ack_ns = 30;
};

inline int round_trip(const LinkCosts& c) { return 2 * c.hop_ns + c.ack_ns; }

inline int slow_round_trip() { return round_trip({.hop_ns = 400}); }

}  // namespace fx
