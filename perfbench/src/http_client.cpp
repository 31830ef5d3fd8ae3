#include "http_client.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace perfbench {

bool HttpConnection::open(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    close();
    return false;
  }
  return true;
}

void HttpConnection::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  in_.clear();
}

bool HttpConnection::send_all(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool HttpConnection::read_available() {
  char chunk[16384];
  const ssize_t got = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
  if (got > 0) {
    in_.append(chunk, static_cast<std::size_t>(got));
    return true;
  }
  return got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR);
}

int HttpConnection::take_response(int* status, std::string* body) {
  const std::size_t head_end = in_.find("\r\n\r\n");
  if (head_end == std::string::npos) return 0;
  // "HTTP/1.1 200 OK"
  if (in_.compare(0, 9, "HTTP/1.1 ") != 0) return -1;
  *status = std::atoi(in_.c_str() + 9);
  static constexpr char kLength[] = "Content-Length: ";
  const std::size_t at = in_.find(kLength);
  if (at == std::string::npos || at > head_end) return -1;
  const std::size_t length = static_cast<std::size_t>(
      std::strtoull(in_.c_str() + at + sizeof kLength - 1, nullptr, 10));
  const std::size_t total = head_end + 4 + length;
  if (in_.size() < total) return 0;
  body->assign(in_, head_end + 4, length);
  in_.erase(0, total);
  return 1;
}

}  // namespace perfbench
