// Helpers for comparing traffic analyses: a log's unresolved copy (no title
// attached, so the analyzer resolves every manifest from the wire) and a
// field-by-field equality check on AnalyzedTraffic.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/traffic_analyzer.h"
#include "http/traffic_log.h"

namespace vodx::testing {

/// `log`'s records in a log with no title resolution attached.
inline http::TrafficLog unresolved_copy(const http::TrafficLog& log) {
  http::TrafficLog copy;
  for (const http::TransferRecord& r : log.records()) {
    http::Response response;
    response.status = r.status;
    response.content_type = r.content_type;
    response.payload_size = r.payload_size;
    response.body = r.body_copy;
    const int id = copy.open(r.method, r.url, r.range, r.requested_at,
                             response, r.connection, r.connection_use);
    if (r.finished()) {
      copy.complete(id, r.finish_time(), r.bytes_received);
    } else if (r.aborted) {
      copy.abort(id, r.bytes_received);
    }
  }
  return copy;
}

inline void expect_same_ladder(const std::vector<core::AnalyzedTrack>& a,
                               const std::vector<core::AnalyzedTrack>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("level " + std::to_string(i));
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].level, b[i].level);
    EXPECT_EQ(a[i].declared_bitrate, b[i].declared_bitrate);
    EXPECT_EQ(a[i].resolution, b[i].resolution);
    EXPECT_EQ(a[i].segment_durations, b[i].segment_durations);
    EXPECT_EQ(a[i].segment_sizes, b[i].segment_sizes);
  }
}

/// Ladders, downloads (split downloads merged) and wire intervals, field by
/// field.
inline void expect_same_traffic(const core::AnalyzedTraffic& a,
                                const core::AnalyzedTraffic& b) {
  EXPECT_EQ(a.protocol, b.protocol);
  EXPECT_EQ(a.manifest_encrypted, b.manifest_encrypted);
  EXPECT_EQ(a.total_payload_bytes, b.total_payload_bytes);
  expect_same_ladder(a.video_tracks, b.video_tracks);
  expect_same_ladder(a.audio_tracks, b.audio_tracks);
  EXPECT_EQ(a.media_transfer_intervals, b.media_transfer_intervals);
  ASSERT_EQ(a.downloads.size(), b.downloads.size());
  for (std::size_t i = 0; i < a.downloads.size(); ++i) {
    SCOPED_TRACE("download " + std::to_string(i));
    const core::SegmentDownload& x = a.downloads[i];
    const core::SegmentDownload& y = b.downloads[i];
    EXPECT_EQ(x.type, y.type);
    EXPECT_EQ(x.level, y.level);
    EXPECT_EQ(x.index, y.index);
    EXPECT_EQ(x.declared_bitrate, y.declared_bitrate);
    EXPECT_EQ(x.resolution, y.resolution);
    EXPECT_EQ(x.duration, y.duration);
    EXPECT_EQ(x.bytes, y.bytes);
    EXPECT_EQ(x.requested_at, y.requested_at);
    EXPECT_EQ(x.completed_at, y.completed_at);
    EXPECT_EQ(x.aborted, y.aborted);
    EXPECT_EQ(x.connection, y.connection);
    EXPECT_EQ(x.connection_use, y.connection_use);
  }
}

}  // namespace vodx::testing
