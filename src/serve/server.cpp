#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/fault.h"
#include "common/metrics.h"

namespace netfm::serve {

namespace {

/// Writes the whole buffer, retrying on short writes/EINTR. With
/// SO_SNDTIMEO set, a slow-reading client surfaces as EAGAIN timeouts;
/// `stall_limit` of those in a row abandons the write so the connection
/// cannot pin an io_thread forever.
bool write_all(int fd, std::string_view data, int stall_limit) noexcept {
  int stalls = 0;
  while (!data.empty()) {
    const ssize_t wrote = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if ((errno == EAGAIN || errno == EWOULDBLOCK) &&
          ++stalls < stall_limit)
        continue;  // send timeout tick: bounded retry
      return false;
    }
    stalls = 0;  // progress resets the stall budget
    data.remove_prefix(static_cast<std::size_t>(wrote));
  }
  return true;
}

}  // namespace

HttpServer::HttpServer(Scheduler& scheduler, ServerOptions options)
    : scheduler_(&scheduler), options_(options) {
  if (options_.io_threads == 0) options_.io_threads = 1;
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error("HttpServer: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, options_.backlog) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("HttpServer: bind/listen failed: ") +
                             std::strerror(errno));
  }
  socklen_t addr_len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  stopping_.store(false);
  acceptor_ = std::thread([this] { accept_loop(); });
  io_workers_.reserve(options_.io_threads);
  for (std::size_t i = 0; i < options_.io_threads; ++i)
    io_workers_.emplace_back([this] { io_loop(); });
}

void HttpServer::stop() {
  if (stopping_.exchange(true)) {
    // Already stopping/stopped — but start() may never have run.
    if (acceptor_.joinable()) acceptor_.join();
    for (std::thread& t : io_workers_)
      if (t.joinable()) t.join();
    return;
  }
  // shutdown() wakes the acceptor's accept(); the fd is closed and reset
  // only after the acceptor, its one concurrent reader, has been joined.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  conn_ready_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (std::thread& t : io_workers_)
    if (t.joinable()) t.join();
  io_workers_.clear();
  // Orphaned accepted connections that no handler picked up.
  std::lock_guard<std::mutex> lock(conn_mutex_);
  for (const int fd : conn_queue_) ::close(fd);
  conn_queue_.clear();
}

void HttpServer::accept_loop() {
  static const auto c_conns = metrics::counter("serve.conns", "conn");
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by stop(), or fatal
    }
    c_conns.add();
    // Bound how long a silent client can park a handler thread — in both
    // directions: reads via SO_RCVTIMEO, writes via SO_SNDTIMEO (a
    // slow-reading client otherwise blocks send(2) indefinitely once the
    // socket buffer fills).
    timeval timeout{};
    timeout.tv_sec = options_.read_timeout_ms / 1000;
    timeout.tv_usec = (options_.read_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    timeval write_timeout{};
    write_timeout.tv_sec = options_.write_timeout_ms / 1000;
    write_timeout.tv_usec = (options_.write_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &write_timeout,
                 sizeof write_timeout);
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      conn_queue_.push_back(fd);
    }
    conn_ready_.notify_one();
  }
}

void HttpServer::io_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(conn_mutex_);
      conn_ready_.wait(lock, [this] {
        return stopping_.load() || !conn_queue_.empty();
      });
      if (conn_queue_.empty()) return;  // stopping and drained
      fd = conn_queue_.front();
      conn_queue_.pop_front();
    }
    handle_connection(fd);
  }
}

void HttpServer::handle_connection(int fd) {
  static const auto f_drop = fault::point("serve.conn.drop");
  static const auto c_dropped = metrics::counter("serve.conn.dropped");
  static const auto c_requests = metrics::counter("serve.http.requests");
  static const auto c_bad = metrics::counter("serve.http.bad_request");

  std::string buffer;
  bool keep_alive = true;
  while (keep_alive && !stopping_.load()) {
    // Read through the end of the request head.
    std::size_t head_end;
    while ((head_end = buffer.find("\r\n\r\n")) == std::string::npos) {
      if (buffer.size() > options_.max_request_bytes) {
        write_all(fd, http_response(400, R"({"ok":false,"error":"head too large"})",
                                    false),
                  options_.write_stall_limit);
        ::close(fd);
        return;
      }
      char chunk[4096];
      const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
      if (got == 0) {  // client closed between requests: clean end
        ::close(fd);
        return;
      }
      if (got < 0) {
        if ((errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) &&
            !stopping_.load())
          continue;  // read timeout tick: re-check stop flag
        ::close(fd);
        return;
      }
      buffer.append(chunk, static_cast<std::size_t>(got));
    }

    const auto head = parse_http_head(std::string_view(buffer).substr(0, head_end));
    if (!head || head->content_length > options_.max_request_bytes) {
      c_bad.add();
      write_all(fd, http_response(400, R"({"ok":false,"error":"bad request"})",
                                  false),
                options_.write_stall_limit);
      ::close(fd);
      return;
    }
    buffer.erase(0, head_end + 4);
    while (buffer.size() < head->content_length) {
      char chunk[4096];
      const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
      if (got == 0) {
        ::close(fd);
        return;
      }
      if (got < 0) {
        if ((errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) &&
            !stopping_.load())
          continue;
        ::close(fd);
        return;
      }
      buffer.append(chunk, static_cast<std::size_t>(got));
    }
    const std::string body = buffer.substr(0, head->content_length);
    buffer.erase(0, head->content_length);
    keep_alive = head->keep_alive;
    c_requests.add();

    int status = 200;
    std::string reply_body;
    if (head->target == "/healthz" && head->method == "GET") {
      // Liveness: an io_thread answered, the process is up.
      reply_body = R"({"ok":true})";
    } else if (head->target == "/readyz" && head->method == "GET") {
      // Readiness: the scheduler worker heartbeat is fresh (no wedged
      // tick) and no drain has begun.
      const bool alive = scheduler_->worker_alive();
      const bool draining = scheduler_->draining();
      const bool ready = alive && !draining;
      status = ready ? 200 : 503;
      reply_body = std::string("{\"ok\":") + (ready ? "true" : "false") +
                   ",\"worker_alive\":" + (alive ? "true" : "false") +
                   ",\"draining\":" + (draining ? "true" : "false") +
                   ",\"degrade_level\":" +
                   std::to_string(scheduler_->degrade_level()) + "}";
    } else if (head->target == "/drainz" &&
               (head->method == "GET" || head->method == "POST")) {
      // Idempotent: first hit stops admission; poll until drained.
      scheduler_->begin_drain();
      const bool drained = scheduler_->drained();
      status = drained ? 200 : 202;
      reply_body = std::string("{\"ok\":true,\"drained\":") +
                   (drained ? "true" : "false") + ",\"queued\":" +
                   std::to_string(scheduler_->queued()) + "}";
    } else if (head->method != "POST") {
      status = 404;
      reply_body = R"({"ok":false,"error":"POST only"})";
    } else {
      std::string error;
      auto request = parse_request(head->target, body, &error);
      if (!request) {
        c_bad.add();
        status = error == "unknown target" ? 404 : 400;
        reply_body = reply_to_json(Reply::errored(error), Op::kScore);
      } else {
        if (head->deadline_ms != 0)  // header wins over the JSON body
          request->deadline_ms = head->deadline_ms;
        const Op op = request->op;
        Reply reply;
        try {
          reply = scheduler_->submit(std::move(*request)).get();
        } catch (const std::exception& e) {
          // The scheduler answers every admitted future, so this only
          // covers allocation failure inside submit itself — still a
          // typed reply, never a dead connection.
          reply = Reply::errored(std::string("submit failed: ") + e.what());
        }
        if (reply.status == Reply::Status::kRejected) status = 503;
        if (reply.status == Reply::Status::kError) status = 500;
        reply_body = reply_to_json(reply, op);
      }
    }

    // Injected mid-request connection loss: the reply is computed but the
    // client never sees it.
    if (f_drop.fire()) {
      c_dropped.add();
      ::close(fd);
      return;
    }
    if (!write_all(fd, http_response(status, reply_body, keep_alive),
                   options_.write_stall_limit)) {
      ::close(fd);
      return;
    }
  }
  ::close(fd);
}

}  // namespace netfm::serve
