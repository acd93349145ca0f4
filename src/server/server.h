// ptserverd server core: accept loop, worker pool, connection registry.
//
// Threading model (DESIGN.md §5.4):
//
//   poller (1 thread)   poll()s the listeners, the wakeup pipe, and every
//                       connection that is NOT currently being serviced.
//                       Readable connections are marked in-service and
//                       handed to the worker queue; it also accepts new
//                       connections (rejecting with a BUSY error frame at
//                       the connection cap) and reaps idle ones.
//   workers (N threads) each pops one in-service connection, reads exactly
//                       one frame, dispatches it through the connection's
//                       Session, writes the response, and re-arms the
//                       connection for polling. A connection is therefore
//                       serviced by at most one worker at a time, which is
//                       what lets Session keep its state unlocked.
//
// Stop sequence (SIGTERM / SHUTDOWN frame / stop()): the stop flag is set
// and the wakeup pipe poked; the poller closes the listeners (no new
// connections), drains the worker queue, joins the workers (in-flight
// requests finish and their responses are sent), then tears down every
// remaining session — releasing their DbGate holds — and closes the
// sockets. The database object itself is owned by the caller.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "minidb/database.h"
#include "server/dbgate.h"
#include "server/metrics_http.h"
#include "server/net.h"
#include "server/session.h"

namespace perftrack::server {

struct ServerConfig {
  /// TCP listen address; disabled when `tcp` is false.
  bool tcp = true;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = kernel-assigned (see boundPort())

  /// Unix-domain listen path; empty disables.
  std::string unix_path;

  int workers = 4;
  std::size_t max_connections = 64;

  /// HTTP observability endpoint (GET /metrics, GET /traces) on the same
  /// host as `host`. -1 disables; 0 = kernel-assigned (see
  /// boundMetricsPort()).
  int metrics_port = -1;

  /// Connections idle longer than this are reaped (0 disables reaping).
  std::chrono::milliseconds idle_timeout{300000};
  /// Per-connection socket send/recv budget while servicing one request.
  std::chrono::milliseconds io_timeout{30000};

  SessionLimits limits;
};

class PtServer {
 public:
  PtServer(minidb::Database& db, ServerConfig config);
  ~PtServer();

  PtServer(const PtServer&) = delete;
  PtServer& operator=(const PtServer&) = delete;

  /// Binds the listeners and launches the poller and workers. Throws
  /// NetError if no listener can be bound.
  void start();

  /// Graceful drain (see file comment). Idempotent; blocks until every
  /// thread has joined and every connection is torn down.
  void stop();

  /// Flags the server to stop without blocking. Safe to call from any
  /// thread, including a worker servicing the SHUTDOWN frame.
  void requestStop();

  /// Blocks until a stop request arrives and the drain completes.
  void waitUntilStopped();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The TCP port actually bound (resolves port 0). 0 when TCP is disabled.
  std::uint16_t boundPort() const { return bound_port_; }

  /// The metrics endpoint's bound port. 0 when the endpoint is disabled.
  std::uint16_t boundMetricsPort() const {
    return metrics_ ? metrics_->boundPort() : 0;
  }

  const ServerCounters& counters() const { return counters_; }
  DbGate& gate() { return gate_; }

 private:
  struct Conn {
    explicit Conn(Socket s) : sock(std::move(s)) {}
    Socket sock;
    std::unique_ptr<Session> session;
    std::chrono::steady_clock::time_point last_activity;
    bool in_service = false;
  };

  /// GET /healthz body: "ok" when the process is serving and the store
  /// file (if any) is still writable; an "unhealthy: ..." line otherwise.
  std::string renderHealthz() const;
  /// GET /varz body: build/config introspection as "name value" lines
  /// (protocol version, durability mode, worker/limit knobs, the value new
  /// sessions get for every execution option, uptime).
  std::string renderVarz() const;

  void pollerLoop();
  void workerLoop();
  /// Serves exactly one request on `conn`; returns false when the
  /// connection should be closed (EOF, framing damage, I/O error).
  bool serviceOne(Conn& conn);
  void acceptInto(Listener& listener);
  void reapIdle(std::chrono::steady_clock::time_point now);
  void closeConn(int fd);  // caller must hold conns_mu_
  void pokePoller();

  minidb::Database* db_;
  ServerConfig config_;
  DbGate gate_;
  ServerCounters counters_;

  std::vector<Listener> listeners_;
  std::uint16_t bound_port_ = 0;
  std::unique_ptr<MetricsEndpoint> metrics_;
  int wakeup_read_ = -1;
  // requestStop() may arrive from any thread (signal relay, SHUTDOWN frame)
  // while stop() tears the pipe down, so the write end is mutex-guarded.
  std::mutex wakeup_mu_;
  int wakeup_write_ = -1;

  std::mutex conns_mu_;
  std::map<int, std::unique_ptr<Conn>> conns_;  // keyed by fd
  std::uint64_t next_session_id_ = 1;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> ready_fds_;

  std::thread poller_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  std::mutex lifecycle_mu_;  // serializes start()/stop()
};

}  // namespace perftrack::server
