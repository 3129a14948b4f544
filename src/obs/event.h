// Structured trace events.
//
// Everything the toolchain can observe about a running session — simulator
// ticks, TCP state machines, HTTP request lifecycles, player decisions,
// inference divergences — is expressed as one Event type: a sim-time-stamped,
// categorised, named record with a handful of typed key/value fields. The
// paper's methodology reconstructs player state from externally visible
// traffic; this event stream is the internal ground truth it is validated
// against, and the substrate the exporters (JSONL, Chrome trace_event,
// metrics tables) render.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"

namespace vodx::obs {

/// Event categories, one bit each so sinks can mask whole subsystems.
enum class Category : std::uint32_t {
  kSim = 1u << 0,      ///< simulator internals (run spans, tick stats)
  kLink = 1u << 1,     ///< bottleneck capacity and sharing
  kTcp = 1u << 2,      ///< per-connection state machine, cwnd, restarts
  kHttp = 1u << 3,     ///< request lifecycle (ties to TransferRecord.id)
  kPlayer = 1u << 4,   ///< state machine, stalls, buffer, replacement
  kAbr = 1u << 5,      ///< adaptation decisions with their inputs
  kSession = 1u << 6,  ///< session milestones, truth-vs-inference divergence
  kFault = 1u << 7,    ///< injected faults (rejects, errors, resets, latency)
  kOrigin = 1u << 8,   ///< origin tier (cache misses, retries, DC failover)
};

constexpr std::uint32_t kAllCategories = 0xffffffffu;

/// Mask bits above the categories switch one high-rate series on its own;
/// the series' events keep their category. kAllCategories sets them, so a
/// default sink records the series, and a mask built from category bits
/// leaves it out.
constexpr std::uint32_t kTcpCwndSeries = 1u << 16;  ///< tcp.cwnd_kb per RTT

/// What an observer that reads a session's events as evidence records
/// (chaos::run_checked's invariants, batch::run_sweep's cells for diag):
/// every category, since time.monotone walks every event, but not the
/// kTcpCwndSeries switch. No evidence reader uses the per-RTT cwnd samples,
/// and each one would bound the link's span and wake it.
constexpr std::uint32_t kEvidenceMask = kAllCategories & ~kTcpCwndSeries;

constexpr std::uint32_t bit(Category category) {
  return static_cast<std::uint32_t>(category);
}

const char* to_string(Category category);

/// How an event renders on a timeline (mirrors Chrome trace_event phases).
enum class EventKind : std::uint8_t {
  kInstant,    ///< a point in time ('i')
  kSpanBegin,  ///< opens a nested duration on its track ('B')
  kSpanEnd,    ///< closes the innermost open duration ('E')
  kCounter,    ///< a sampled value series ('C')
};

/// One key/value payload entry: either a number or a piece of text. Keys must
/// be string literals (they are stored unowned); text values are copied.
struct Field {
  const char* key = "";
  double num = 0;
  std::string text;
  bool is_text = false;

  static Field n(const char* key, double value) {
    Field field;
    field.key = key;
    field.num = value;
    return field;
  }
  static Field t(const char* key, std::string value) {
    Field field;
    field.key = key;
    field.text = std::move(value);
    field.is_text = true;
    return field;
  }
};

struct Event {
  Seconds sim_time = 0;
  /// Global emission order; the deterministic tiebreak at equal sim_time.
  std::uint64_t seq = 0;
  Category category = Category::kSim;
  EventKind kind = EventKind::kInstant;
  /// Static string (literal); never freed.
  const char* name = "";
  /// Timeline the event belongs to (TraceSink::track id, Chrome "tid").
  int track = 0;
  std::vector<Field> fields;
};

// --- Field lookup ----------------------------------------------------------
//
// Consumers that read events back (exporters, the diag attribution engine)
// address payload entries by key. Keys are compared by content, not pointer:
// emission sites use literals but a round-tripped event may not.

inline const Field* find_field(const Event& event, std::string_view key) {
  for (const Field& field : event.fields) {
    if (key == field.key) return &field;
  }
  return nullptr;
}

/// Numeric field by key; `fallback` when absent or text-typed.
inline double field_num(const Event& event, std::string_view key,
                        double fallback = 0) {
  const Field* field = find_field(event, key);
  return (field != nullptr && !field->is_text) ? field->num : fallback;
}

}  // namespace vodx::obs
