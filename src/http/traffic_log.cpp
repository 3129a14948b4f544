#include "http/traffic_log.h"

#include "common/error.h"

namespace vodx::http {

Seconds TransferRecord::finish_time() const {
  VODX_ASSERT(finished(), "finish_time() on an unfinished transfer");
  return completed_at;
}

int TrafficLog::open(Method method, const std::string& url,
                     const std::optional<manifest::ByteRange>& range,
                     Seconds now, const Response& response,
                     const std::string& connection, int connection_use) {
  TransferRecord record;
  record.id = static_cast<int>(records_.size());
  record.method = method;
  record.connection = connection;
  record.connection_use = connection_use;
  record.url = url;
  record.range = range;
  record.status = response.status;
  record.content_type = response.content_type;
  record.requested_at = now;
  record.payload_size = response.payload_size;
  record.body_copy = response.body;
  records_.push_back(std::move(record));
  return records_.back().id;
}

void TrafficLog::complete(int id, Seconds now, Bytes bytes_received) {
  TransferRecord& record = record_mut(id);
  VODX_ASSERT(!record.finished() && !record.aborted, "record already closed");
  record.completed_at = now;
  record.bytes_received = bytes_received;
}

void TrafficLog::abort(int id, Bytes bytes_received) {
  TransferRecord& record = record_mut(id);
  VODX_ASSERT(!record.finished() && !record.aborted, "record already closed");
  record.aborted = true;
  record.bytes_received = bytes_received;
}

const TransferRecord& TrafficLog::record(int id) const {
  VODX_ASSERT(id >= 0 && id < static_cast<int>(records_.size()),
              "unknown transfer record");
  return records_[static_cast<std::size_t>(id)];
}

TransferRecord& TrafficLog::record_mut(int id) {
  VODX_ASSERT(id >= 0 && id < static_cast<int>(records_.size()),
              "unknown transfer record");
  return records_[static_cast<std::size_t>(id)];
}

Bytes TrafficLog::total_bytes() const {
  Bytes total = 0;
  for (const TransferRecord& r : records_) total += r.bytes_received;
  return total;
}

}  // namespace vodx::http
