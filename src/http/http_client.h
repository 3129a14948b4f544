// HTTP client over the simulated transport.
//
// Owns up to `max_connections` TCP connections to the origin (through the
// proxy). Callers ask for a free slot, issue a request, and get called back
// when the response has fully arrived over the simulated link. The player's
// download scheduler is responsible for deciding *what* and *when* to fetch;
// this class only moves bytes and keeps the proxy's traffic log faithful.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "http/proxy.h"
#include "net/link.h"
#include "net/simulator.h"
#include "net/tcp_connection.h"
#include "obs/observer.h"

namespace vodx::http {

class HttpClient {
 public:
  struct Options {
    int max_connections = 1;
    net::TcpConfig tcp;
  };

  HttpClient(net::Simulator& sim, net::Link& link, Proxy& proxy,
             Options options);
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  using ResponseFn = std::function<void(const Response&)>;

  /// Attaches an observability context, propagated to every TCP connection
  /// (existing and future). Request lifecycle spans carry the TrafficLog
  /// record id, so a trace event joins against the TransferRecord it logged.
  void set_observer(obs::Observer* observer);

  /// Issues a request on a free connection. Returns the transfer id (also the
  /// TrafficLog record id), or -1 when every connection is busy.
  int fetch(const Request& request, ResponseFn on_done);

  /// Abandons an in-flight transfer; partial bytes are logged as waste and
  /// the underlying connection is closed. No callback fires.
  void abort(int transfer_id);

  /// Permanent teardown (session departure): aborts every in-flight
  /// transfer without firing callbacks, detaches and destroys all
  /// connections — the link redistributes their share to the surviving
  /// flows on its next allocation pass — and refuses further fetches
  /// (fetch() returns -1). Idempotent.
  void shutdown();
  bool shut_down() const { return shut_down_; }

  bool can_fetch() const { return free_slots() > 0; }
  int free_slots() const;

  /// Total wire bytes this client has received over its lifetime, across all
  /// connections — the input for a player-wide bandwidth meter.
  Bytes total_delivered() const;

  /// The grid ticks in which any of this client's connections delivered
  /// payload: the meter's busy time, readable by a player that slept.
  const net::DeliveryTally& deliveries() const { return deliveries_; }

 private:
  struct Pending {
    net::TcpConnection* connection = nullptr;
    Response response;
    ResponseFn on_done;
    /// True when the response carries a reset_after below its wire size: the
    /// truncated transfer ends in a connection reset, not a completion.
    bool reset = false;
  };

  /// Observable identity of a connection: a handshake (re)starts a new
  /// "wire connection" even when the client object is reused.
  struct ConnectionUsage {
    int generation = 0;
    int requests_on_generation = 0;
    std::string wire_name;  ///< "<label>.<generation>", built per generation
  };

  net::TcpConnection* acquire_connection();
  void finish(int transfer_id);

  net::Simulator& sim_;
  net::Link& link_;
  Proxy& proxy_;
  Options options_;
  std::vector<std::unique_ptr<net::TcpConnection>> connections_;
  std::map<net::TcpConnection*, ConnectionUsage> usage_;
  std::map<int, Pending> in_flight_;
  net::DeliveryTally deliveries_;
  bool shut_down_ = false;

  obs::Observer* obs_ = nullptr;
  obs::Counter* requests_metric_ = nullptr;
  obs::Counter* aborts_metric_ = nullptr;
  obs::Counter* bytes_metric_ = nullptr;
  obs::Counter* resets_metric_ = nullptr;
};

}  // namespace vodx::http
