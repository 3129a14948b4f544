// Wire-level record of every HTTP exchange, as seen at the proxy.
//
// This is the raw material for the paper's traffic analyzer (§2.3): URL,
// byte range, timing, size, and — for structured payloads — the bytes
// themselves (manifests, sidx boxes). Aborted transfers keep their partial
// byte count; that is exactly the "wasted data" the SR analysis charges.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "http/message.h"

namespace vodx::http {

struct TransferRecord {
  int id = 0;
  Method method = Method::kGet;
  /// Which TCP connection carried the exchange plus its serial number on
  /// that connection — the observable a packet trace would give (used to
  /// infer connection count and persistence, §3.2).
  std::string connection;
  int connection_use = 0;
  std::string url;
  std::optional<manifest::ByteRange> range;
  int status = 0;
  std::string content_type;
  Seconds requested_at = 0;
  Seconds completed_at = -1;  ///< -1 while in flight or if aborted
  Bytes payload_size = 0;     ///< full response payload
  Bytes bytes_received = 0;   ///< actual, < payload_size when aborted
  bool aborted = false;
  /// Copy of structured payloads (manifest text, sidx bytes); empty for media.
  std::string body_copy;

  bool finished() const { return completed_at >= 0; }

  /// Completion time of a finished transfer; asserts finished(). Use this
  /// (or finish_or) instead of reading the completed_at sentinel directly.
  Seconds finish_time() const;

  /// Completion time, or `fallback` while in flight / after an abort.
  Seconds finish_or(Seconds fallback) const {
    return finished() ? completed_at : fallback;
  }
};

class TrafficLog {
 public:
  /// `title`: the resolution of the title the logged session streams (the
  /// proxy's origin), or nullptr for a log of unknown provenance. The
  /// traffic analyzer takes it instead of resolving the logged manifests
  /// again when they are byte-equal to the title's.
  explicit TrafficLog(const manifest::Resolution* title = nullptr)
      : title_(title) {}

  const manifest::Resolution* title() const { return title_; }

  /// Opens a record; returns its id. `connection` identifies the TCP
  /// connection, `connection_use` how many requests it has carried before
  /// (0 = a fresh connection, i.e. a handshake was observed).
  int open(Method method, const std::string& url,
           const std::optional<manifest::ByteRange>& range, Seconds now,
           const Response& response, const std::string& connection,
           int connection_use);

  void complete(int id, Seconds now, Bytes bytes_received);
  void abort(int id, Bytes bytes_received);

  const std::vector<TransferRecord>& records() const { return records_; }
  const TransferRecord& record(int id) const;

  /// Total bytes that crossed the wire (payload only, aborted included).
  Bytes total_bytes() const;

 private:
  TransferRecord& record_mut(int id);

  const manifest::Resolution* title_ = nullptr;
  std::vector<TransferRecord> records_;
};

}  // namespace vodx::http
