#include "obs/trace_sink.h"

#include <algorithm>

#include "common/error.h"

namespace vodx::obs {

const char* to_string(Category category) {
  switch (category) {
    case Category::kSim: return "sim";
    case Category::kLink: return "link";
    case Category::kTcp: return "tcp";
    case Category::kHttp: return "http";
    case Category::kPlayer: return "player";
    case Category::kAbr: return "abr";
    case Category::kSession: return "session";
    case Category::kFault: return "fault";
    case Category::kOrigin: return "origin";
  }
  return "?";
}

TraceSink::TraceSink(std::size_t capacity) : capacity_(capacity) {
  ring_.reserve(std::min<std::size_t>(capacity, 1024));
}

int TraceSink::track(const std::string& name) {
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i] == name) return static_cast<int>(i);
  }
  tracks_.push_back(name);
  return static_cast<int>(tracks_.size()) - 1;
}

void TraceSink::emit(Event event) {
  event.seq = emitted_++;
  if (capacity_ == 0) {
    // A zero-capacity ring retains nothing but still counts: emitted() and
    // dropped() stay exact so exporters can report the truncation.
    ++dropped_;
    return;
  }
  if (count_ < capacity_) {
    ring_.push_back(std::move(event));
    ++count_;
    next_ = count_ % capacity_;
    return;
  }
  ring_[next_] = std::move(event);
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

void TraceSink::instant(Seconds time, Category category, const char* name,
                        int track, std::vector<Field> fields) {
  Event event;
  event.sim_time = time;
  event.category = category;
  event.kind = EventKind::kInstant;
  event.name = name;
  event.track = track;
  event.fields = std::move(fields);
  emit(std::move(event));
}

void TraceSink::begin(Seconds time, Category category, const char* name,
                      int track, std::vector<Field> fields) {
  Event event;
  event.sim_time = time;
  event.category = category;
  event.kind = EventKind::kSpanBegin;
  event.name = name;
  event.track = track;
  event.fields = std::move(fields);
  emit(std::move(event));
}

void TraceSink::end(Seconds time, Category category, const char* name,
                    int track, std::vector<Field> fields) {
  Event event;
  event.sim_time = time;
  event.category = category;
  event.kind = EventKind::kSpanEnd;
  event.name = name;
  event.track = track;
  event.fields = std::move(fields);
  emit(std::move(event));
}

void TraceSink::counter(Seconds time, Category category, const char* name,
                        int track, double value) {
  Event event;
  event.sim_time = time;
  event.category = category;
  event.kind = EventKind::kCounter;
  event.name = name;
  event.track = track;
  event.fields.push_back(Field::n("value", value));
  emit(std::move(event));
}

// Drops the retained window only; emitted()/dropped() are lifetime totals
// (seq stays monotonic across a clear, so merged exports remain ordered).
void TraceSink::clear() {
  ring_.clear();
  next_ = 0;
  count_ = 0;
}

ScopedSpan::ScopedSpan(TraceSink* sink, Category category, const char* name,
                       int track, Seconds begin_time,
                       std::vector<Field> fields)
    : category_(category), name_(name), track_(track),
      begin_time_(begin_time) {
  if (sink == nullptr || !sink->enabled(category)) return;
  sink_ = sink;
  sink_->begin(begin_time, category, name, track, std::move(fields));
}

ScopedSpan::~ScopedSpan() {
  if (sink_ == nullptr) return;
  const Seconds end_time = std::max(begin_time_, sink_->now());
  sink_->end(end_time, category_, name_, track_);
}

}  // namespace vodx::obs
