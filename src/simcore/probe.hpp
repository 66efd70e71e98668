// Instrumentation hooks for the simulation kernel.
//
// The observability layer (src/obs) sits *above* simcore in the dependency
// graph, so the kernel cannot call it directly.  Instead the kernel
// exposes these two narrow interfaces; obs::Observer implements both and
// higher layers wire it in.  Every hook site costs exactly one pointer
// test when no probe is attached.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simcore/time.hpp"

namespace cpa::sim {

struct FlowStats;

/// Event-loop accounting: one call per fired event.
class SimProbe {
 public:
  virtual ~SimProbe() = default;
  /// Called after the clock advanced to `at`, before the callback runs.
  virtual void on_event_fired(Tick at) = 0;
  /// Called when a pending event is cancelled (tombstoned).  Defaulted so
  /// probes that only care about fired events need not override it.
  virtual void on_event_cancelled(Tick /*at*/) {}
};

/// Data-movement accounting: one call per flow transition.
class FlowProbe {
 public:
  virtual ~FlowProbe() = default;
  virtual void on_flow_started(std::uint64_t flow_id, double bytes,
                               Tick now) = 0;
  virtual void on_flow_completed(std::uint64_t flow_id,
                                 const FlowStats& stats) = 0;
  virtual void on_flow_aborted(std::uint64_t flow_id, Tick now) = 0;
  /// Called once per rate recomputation with the number of flows whose
  /// rates were re-solved: the sizes of the dirty components it re-solved.
  /// Defaulted: most probes only watch flow lifecycles.
  virtual void on_rates_recomputed(std::size_t /*flows_touched*/) {}
};

}  // namespace cpa::sim
