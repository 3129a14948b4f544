#include "http/http_client.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"

namespace vodx::http {

HttpClient::HttpClient(net::Simulator& sim, net::Link& link, Proxy& proxy,
                       Options options)
    : sim_(sim), link_(link), proxy_(proxy), options_(options) {
  VODX_ASSERT(options_.max_connections > 0, "need at least one connection");
}

HttpClient::~HttpClient() { shutdown(); }

void HttpClient::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  for (auto& [id, pending] : in_flight_) {
    // The abort catches a sleeping link up, so the progress read is current.
    pending.connection->abort_transfer();
    proxy_.log().abort(id, pending.connection->transfer_delivered());
  }
  in_flight_.clear();
  for (auto& connection : connections_) link_.detach(connection.get());
  connections_.clear();
  usage_.clear();
}

int HttpClient::free_slots() const {
  int busy = 0;
  for (const auto& connection : connections_) {
    if (connection->busy()) ++busy;
  }
  const int open_slots = static_cast<int>(connections_.size()) - busy;
  const int unopened =
      options_.max_connections - static_cast<int>(connections_.size());
  return open_slots + unopened;
}

void HttpClient::set_observer(obs::Observer* observer) {
  obs_ = observer;
  for (auto& connection : connections_) connection->set_observer(observer);
  if (obs_ == nullptr) {
    requests_metric_ = aborts_metric_ = bytes_metric_ = nullptr;
    resets_metric_ = nullptr;
    return;
  }
  requests_metric_ = &obs_->metrics.counter("http.requests");
  aborts_metric_ = &obs_->metrics.counter("http.aborts");
  bytes_metric_ = &obs_->metrics.counter("http.bytes_received");
  resets_metric_ = &obs_->metrics.counter("http.resets");
}

net::TcpConnection* HttpClient::acquire_connection() {
  if (shut_down_) return nullptr;
  for (auto& connection : connections_) {
    if (!connection->busy()) return connection.get();
  }
  if (static_cast<int>(connections_.size()) < options_.max_connections) {
    auto connection = std::make_unique<net::TcpConnection>(
        options_.tcp, format("conn%zu", connections_.size()));
    connection->set_observer(obs_);
    connection->set_delivery_tally(&deliveries_);
    link_.attach(connection.get());
    connections_.push_back(std::move(connection));
    return connections_.back().get();
  }
  return nullptr;
}

int HttpClient::fetch(const Request& request, ResponseFn on_done) {
  net::TcpConnection* connection = acquire_connection();
  if (connection == nullptr) return -1;

  ConnectionUsage& usage = usage_[connection];
  // A new connection starts closed, so its first fetch names it here.
  if (!connection->connected()) {
    ++usage.generation;
    usage.requests_on_generation = 0;
    usage.wire_name =
        format("%s.%d", connection->label().c_str(), usage.generation);
  }

  Response response = proxy_.resolve(request, sim_.now());
  const int id = proxy_.log().open(request.method, request.url, request.range,
                                   sim_.now(), response, usage.wire_name,
                                   usage.requests_on_generation);
  ++usage.requests_on_generation;
  if (requests_metric_ != nullptr) requests_metric_->add();
  if (obs::trace_on(obs_, obs::Category::kHttp)) {
    // Opens on the carrying connection's track, inside which the TCP layer
    // nests its transfer span. `id` is the TrafficLog record id.
    obs_->trace.begin(
        sim_.now(), obs::Category::kHttp, "http.request",
        connection->obs_track(),
        {obs::Field::n("id", id), obs::Field::t("url", request.url),
         obs::Field::n("status", response.status),
         obs::Field::n("bytes", static_cast<double>(response.payload_size))});
  }
  // Reset faults truncate the wire transfer: the connection delivers bytes
  // up to the reset point, then the client observes a hard failure.
  const Bytes full_wire = response.wire_size();
  const bool reset =
      response.reset_after >= 0 && response.reset_after < full_wire;
  const Bytes wire = reset ? std::max<Bytes>(1, response.reset_after)
                           : full_wire;
  const Seconds extra_wait = std::max<Seconds>(0, response.added_latency);

  Pending pending;
  pending.connection = connection;
  pending.response = std::move(response);
  pending.on_done = std::move(on_done);
  pending.reset = reset;
  in_flight_.emplace(id, std::move(pending));

  connection->start_transfer(sim_.now(), wire, [this, id] { finish(id); },
                             extra_wait);
  return id;
}

void HttpClient::finish(int transfer_id) {
  auto it = in_flight_.find(transfer_id);
  VODX_ASSERT(it != in_flight_.end(), "completion for unknown transfer");
  // Move out before invoking: the callback may start new fetches.
  Response response = std::move(it->second.response);
  ResponseFn on_done = std::move(it->second.on_done);
  net::TcpConnection* connection = it->second.connection;
  if (it->second.reset) {
    // The truncated wire transfer finished — surface it as a mid-response
    // connection reset: partial payload logged as an abort, connection
    // closed, caller sees a transport-level error (status 0).
    const Bytes received = std::max<Bytes>(
        0, connection->transfer_delivered() - kHttpHeaderOverhead);
    proxy_.log().abort(transfer_id, received);
    if (bytes_metric_ != nullptr) bytes_metric_->add(received);
    if (resets_metric_ != nullptr) resets_metric_->add();
    connection->close();
    if (obs::trace_on(obs_, obs::Category::kHttp)) {
      obs_->trace.end(
          sim_.now(), obs::Category::kHttp, "http.request",
          connection->obs_track(),
          {obs::Field::n("id", transfer_id), obs::Field::n("reset", 1),
           obs::Field::n("bytes_received", static_cast<double>(received))});
    }
    in_flight_.erase(it);
    if (on_done) on_done(make_error(0, "connection reset by peer"));
    return;
  }
  proxy_.log().complete(transfer_id, sim_.now(), response.payload_size);
  if (bytes_metric_ != nullptr) bytes_metric_->add(response.payload_size);
  if (obs::trace_on(obs_, obs::Category::kHttp)) {
    obs_->trace.end(sim_.now(), obs::Category::kHttp, "http.request",
                    connection->obs_track(),
                    {obs::Field::n("id", transfer_id)});
  }
  in_flight_.erase(it);
  if (on_done) on_done(response);
}

void HttpClient::abort(int transfer_id) {
  auto it = in_flight_.find(transfer_id);
  if (it == in_flight_.end()) return;
  net::TcpConnection* connection = it->second.connection;
  // Closes the nested tcp span first, and catches a sleeping link up, so
  // the progress read below is current.
  connection->abort_transfer();
  // Subtract header overhead so the log charges only payload bytes.
  const Bytes received = std::max<Bytes>(
      0, connection->transfer_delivered() - kHttpHeaderOverhead);
  proxy_.log().abort(transfer_id, received);
  if (bytes_metric_ != nullptr) bytes_metric_->add(received);
  if (aborts_metric_ != nullptr) aborts_metric_->add();
  if (obs::trace_on(obs_, obs::Category::kHttp)) {
    obs_->trace.end(
        sim_.now(), obs::Category::kHttp, "http.request",
        connection->obs_track(),
        {obs::Field::n("id", transfer_id), obs::Field::n("aborted", 1),
         obs::Field::n("bytes_received", static_cast<double>(received))});
  }
  in_flight_.erase(it);
}

Bytes HttpClient::total_delivered() const {
  Bytes total = 0;
  for (const auto& connection : connections_) {
    total += connection->lifetime_delivered();
  }
  return total;
}

}  // namespace vodx::http
