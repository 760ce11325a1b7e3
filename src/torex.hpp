// Umbrella header: the whole public API of the torex library.
//
// Fine-grained headers remain available (and are what the library's own
// code uses); this is the convenience include for applications.
#pragma once

#include "baselines/bruck.hpp"
#include "baselines/direct_exchange.hpp"
#include "baselines/ring_exchange.hpp"
#include "core/aape.hpp"
#include "core/block.hpp"
#include "core/data_array.hpp"
#include "core/exchange_engine.hpp"
#include "core/pattern.hpp"
#include "core/payload_exchange.hpp"
#include "core/schedule_io.hpp"
#include "core/schedule_stats.hpp"
#include "core/step_program.hpp"
#include "core/trace.hpp"
#include "core/virtual_torus.hpp"
#include "core/wire_buffer.hpp"
#include "costmodel/lower_bounds.hpp"
#include "costmodel/models.hpp"
#include "costmodel/params.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "runtime/communicator.hpp"
#include "runtime/failure_detector.hpp"
#include "runtime/journal.hpp"
#include "runtime/recovery.hpp"
#include "sim/contention.hpp"
#include "sim/cost_simulator.hpp"
#include "sim/fault_model.hpp"
#include "sim/trace_export.hpp"
#include "sim/wormhole.hpp"
#include "svc/health_registry.hpp"
#include "svc/session.hpp"
#include "svc/session_exchange.hpp"
#include "svc/session_manager.hpp"
#include "topology/group.hpp"
#include "topology/shape.hpp"
#include "topology/torus.hpp"
#include "util/step_pool.hpp"

namespace torex {

/// Library version, kept in sync with the CMake project version.
inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;
inline constexpr int kVersionPatch = 0;

}  // namespace torex
