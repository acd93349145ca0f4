#include "server/server.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

#include "obs/trace.h"

namespace perftrack::server {

PtServer::PtServer(minidb::Database& db, ServerConfig config)
    : db_(&db), config_(std::move(config)) {
  // WAL durability: cursors pin storage snapshots, so the gate lets DML
  // writers run concurrently with readers (schema ops still drain all).
  gate_.setSnapshotReads(db.durability() == minidb::Durability::Wal);
}

PtServer::~PtServer() { stop(); }

void PtServer::start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (running_.load()) return;
  stop_requested_.store(false);

  if (config_.tcp) {
    listeners_.push_back(Listener::tcp(config_.host, config_.port));
    bound_port_ = listeners_.back().boundPort();
  }
  if (!config_.unix_path.empty()) {
    listeners_.push_back(Listener::unixSocket(config_.unix_path));
  }
  if (listeners_.empty()) throw NetError("no listeners configured");

  counters_.start_time = std::chrono::steady_clock::now();
  if (config_.metrics_port >= 0) {
    metrics_ = std::make_unique<MetricsEndpoint>(
        config_.host, static_cast<std::uint16_t>(config_.metrics_port),
        [this](const std::string& path) -> std::string {
          if (path == "/metrics" || path == "/") {
            return renderServerMetrics(*db_, counters_);
          }
          if (path == "/traces") return obs::renderTraces(obs::Tracer::global());
          if (path == "/healthz") return renderHealthz();
          if (path == "/varz") return renderVarz();
          throw std::out_of_range("no such endpoint");
        });
    metrics_->start();
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) throw NetError("cannot create wakeup pipe");
  wakeup_read_ = pipe_fds[0];
  {
    std::lock_guard<std::mutex> lock(wakeup_mu_);
    wakeup_write_ = pipe_fds[1];
  }
  // Non-blocking on both ends: the poller drains without risk of blocking,
  // and pokePoller() never stalls on a full pipe.
  (void)::fcntl(wakeup_read_, F_SETFL, O_NONBLOCK);
  (void)::fcntl(wakeup_write_, F_SETFL, O_NONBLOCK);

  running_.store(true, std::memory_order_release);
  poller_ = std::thread([this] { pollerLoop(); });
  const int n = std::max(1, config_.workers);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

std::string PtServer::renderHealthz() const {
  // Liveness plus a writability probe: a store the server cannot write
  // (volume gone read-only, permissions changed under a running daemon)
  // still serves reads but will fail every commit. The probe is a plain
  // access(2) — no gate, no I/O — so /healthz stays cheap enough to poll.
  const auto* file_pager = dynamic_cast<minidb::FilePager*>(&db_->pager());
  const bool writable =
      file_pager == nullptr || ::access(file_pager->path().c_str(), W_OK) == 0;
  if (!writable) return "unhealthy: store file not writable\n";
  return "ok\n";
}

std::string PtServer::renderVarz() const {
  const auto durability = [&]() -> const char* {
    switch (db_->durability()) {
      case minidb::Durability::None: return "none";
      case minidb::Durability::Full: return "full";
      case minidb::Durability::Wal: return "wal";
    }
    return "unknown";
  }();
  std::string out;
  out += "pt_server_build_compiler " __VERSION__ "\n";
  out += "pt_server_build_date " __DATE__ "\n";
  out += "pt_server_protocol_version " + std::to_string(kProtocolVersion) + "\n";
  out += "pt_server_durability " + std::string(durability) + "\n";
  out += "pt_server_workers " + std::to_string(config_.workers) + "\n";
  out += "pt_server_max_connections " +
         std::to_string(config_.max_connections) + "\n";
  for (const minidb::sql::OptionSpec& spec : minidb::sql::optionTable()) {
    out += "pt_server_" + std::string(spec.name) + " " +
           std::to_string(spec.get(config_.limits.exec_options)) + "\n";
  }
  out += "pt_server_default_fetch_rows " +
         std::to_string(config_.limits.default_fetch_rows) + "\n";
  out += "pt_server_max_fetch_rows " +
         std::to_string(config_.limits.max_fetch_rows) + "\n";
  out += "pt_server_fetch_byte_budget " +
         std::to_string(config_.limits.fetch_byte_budget) + "\n";
  out += "pt_server_uptime_ms " + std::to_string(counters_.uptimeMillis()) + "\n";
  return out;
}

void PtServer::requestStop() {
  {
    // The lock pairs the flag with queue_cv_ waits (workers and
    // waitUntilStopped) so the notify cannot be lost.
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_requested_.store(true, std::memory_order_release);
  }
  pokePoller();
  queue_cv_.notify_all();
}

void PtServer::pokePoller() {
  std::lock_guard<std::mutex> lock(wakeup_mu_);
  if (wakeup_write_ >= 0) {
    const char byte = 1;
    // A full pipe means a wakeup is already pending; dropping is fine.
    (void)!::write(wakeup_write_, &byte, 1);
  }
}

void PtServer::stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (!running_.load()) return;
  requestStop();

  if (poller_.joinable()) poller_.join();
  // The poller stopped feeding the queue; let workers drain what remains.
  queue_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();

  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [fd, conn] : conns_) {
      if (conn->session) conn->session->teardown();
      conn->sock.close();
    }
    conns_.clear();
  }
  metrics_.reset();  // joins the endpoint thread before the db can go away
  for (auto& l : listeners_) l.close();
  listeners_.clear();
  if (wakeup_read_ >= 0) ::close(wakeup_read_);
  wakeup_read_ = -1;
  {
    std::lock_guard<std::mutex> lock(wakeup_mu_);
    if (wakeup_write_ >= 0) ::close(wakeup_write_);
    wakeup_write_ = -1;
  }
  bound_port_ = 0;

  running_.store(false, std::memory_order_release);
}

void PtServer::waitUntilStopped() {
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    queue_cv_.wait(lock, [this] {
      return stop_requested_.load(std::memory_order_acquire);
    });
  }
  // The flag is set by requestStop() (signal handler relay, SHUTDOWN frame,
  // or stop() itself); the actual drain happens here, on the caller's
  // thread, so a worker can never join itself.
  stop();
}

void PtServer::acceptInto(Listener& listener) {
  Socket sock = listener.accept();
  if (!sock.valid()) return;
  sock.setIoTimeout(config_.io_timeout);

  std::lock_guard<std::mutex> lock(conns_mu_);
  if (conns_.size() >= config_.max_connections) {
    counters_.busy_rejections.fetch_add(1, std::memory_order_relaxed);
    // Best effort: a clean BUSY frame beats a silent RST. Drain the client's
    // HELLO first — closing with unread bytes in the receive queue resets the
    // connection and discards the BUSY frame in flight. The socket then
    // closes when `sock` goes out of scope.
    try {
      sock.setIoTimeout(std::chrono::milliseconds(250));
      (void)sock.recvFrame();
      sock.sendFrame(makeError(ErrCode::Busy,
                               "server connection limit (" +
                                   std::to_string(config_.max_connections) +
                                   ") reached; retry later"));
    } catch (const NetError&) {
    }
    return;
  }
  auto conn = std::make_unique<Conn>(std::move(sock));
  conn->session = std::make_unique<Session>(next_session_id_++, *db_, gate_,
                                            config_.limits, counters_);
  conn->last_activity = std::chrono::steady_clock::now();
  const int fd = conn->sock.fd();
  conns_.emplace(fd, std::move(conn));
}

void PtServer::closeConn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (it->second->session) it->second->session->teardown();
  it->second->sock.close();
  conns_.erase(it);
}

void PtServer::reapIdle(std::chrono::steady_clock::time_point now) {
  if (config_.idle_timeout.count() <= 0) return;
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::vector<int> idle;
  for (const auto& [fd, conn] : conns_) {
    if (!conn->in_service && now - conn->last_activity > config_.idle_timeout) {
      idle.push_back(fd);
    }
  }
  for (const int fd : idle) closeConn(fd);
}

void PtServer::pollerLoop() {
  std::vector<pollfd> pfds;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back({wakeup_read_, POLLIN, 0});
    for (const auto& l : listeners_) pfds.push_back({l.fd(), POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const auto& [fd, conn] : conns_) {
        if (!conn->in_service) pfds.push_back({fd, POLLIN, 0});
      }
    }

    const int rc = ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/500);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure: drain and stop
    }
    if (stop_requested_.load(std::memory_order_acquire)) break;

    std::size_t i = 0;
    if (pfds[i].revents & POLLIN) {
      char drain[64];
      while (::read(wakeup_read_, drain, sizeof(drain)) > 0) {
      }
    }
    ++i;
    for (auto& l : listeners_) {
      if (pfds[i].revents & POLLIN) acceptInto(l);
      ++i;
    }

    bool queued = false;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      std::lock_guard<std::mutex> qlock(queue_mu_);
      for (; i < pfds.size(); ++i) {
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const auto it = conns_.find(pfds[i].fd);
        if (it == conns_.end() || it->second->in_service) continue;
        it->second->in_service = true;
        ready_fds_.push_back(pfds[i].fd);
        queued = true;
      }
    }
    if (queued) queue_cv_.notify_all();

    reapIdle(std::chrono::steady_clock::now());
  }
}

void PtServer::workerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !ready_fds_.empty() ||
               stop_requested_.load(std::memory_order_acquire);
      });
      if (ready_fds_.empty()) {
        // Stop requested and nothing left to service.
        if (stop_requested_.load(std::memory_order_acquire)) return;
        continue;
      }
      fd = ready_fds_.front();
      ready_fds_.pop_front();
    }

    Conn* conn = nullptr;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      const auto it = conns_.find(fd);
      if (it != conns_.end()) conn = it->second.get();
    }
    // While in_service the poller never touches this Conn, so the worker
    // may use it without conns_mu_ held.
    if (conn == nullptr) continue;

    const bool keep = serviceOne(*conn);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (keep) {
        conn->in_service = false;
        conn->last_activity = std::chrono::steady_clock::now();
      } else {
        closeConn(fd);
      }
    }
    // Re-arm polling for this fd (or let the poller notice the close).
    pokePoller();
  }
}

bool PtServer::serviceOne(Conn& conn) {
  try {
    std::optional<Frame> request = conn.sock.recvFrame();
    if (!request.has_value()) return false;  // clean disconnect

    Session::Outcome outcome = conn.session->handle(*request);
    conn.sock.sendFrame(outcome.response);
    if (outcome.shutdown_requested) requestStop();
    return !outcome.close_connection && !outcome.shutdown_requested;
  } catch (const FrameTooBig& e) {
    // The oversized payload was never read, so the stream cannot be
    // resynced: send the error frame, then drop the connection.
    try {
      conn.sock.sendFrame(makeError(
          ErrCode::TooBig, "frame of " + std::to_string(e.advertised()) +
                               " bytes exceeds the " +
                               std::to_string(kMaxFrameBytes) + "-byte limit"));
    } catch (const NetError&) {
    }
    return false;
  } catch (const NetError&) {
    // Timeout, mid-frame EOF, or send to a vanished peer: drop.
    return false;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace perftrack::server
