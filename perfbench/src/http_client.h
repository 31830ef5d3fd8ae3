// Minimal keep-alive HTTP/1.1 client connection for the loopback load
// generator. One thread drives several of these through poll(2): each
// connection carries at most one request in flight (a closed loop).
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

class HttpConnection {
 public:
  HttpConnection() = default;
  ~HttpConnection() { close(); }
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Connects to 127.0.0.1:port with TCP_NODELAY. False on failure.
  bool open(std::uint16_t port);
  void close();
  int fd() const noexcept { return fd_; }

  /// Sends the whole request (blocking). False when the peer is gone.
  bool send_all(const std::string& bytes);

  /// Reads what the socket has (call after poll reports POLLIN). False on
  /// EOF or error: the connection dropped.
  bool read_available();

  /// If a complete response is buffered, consumes it into status/body and
  /// returns 1; 0 when more bytes are needed; -1 when the head is
  /// malformed.
  int take_response(int* status, std::string* body);

 private:
  int fd_ = -1;
  std::string in_;
};

}  // namespace perfbench
