#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace wmatch::net {

namespace {

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

int listen_tcp(int port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = errno_message("socket");
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    *error = errno_message("bind");
    ::close(fd);
    return -1;
  }
  if (::listen(fd, SOMAXCONN) < 0) {
    *error = errno_message("listen");
    ::close(fd);
    return -1;
  }
  return fd;
}

int bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return -1;
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

int accept_tcp(int listen_fd) {
  int fd = -1;
  do {
    fd = ::accept(listen_fd, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd >= 0) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

int connect_tcp(const std::string& host, int port, std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "not a numeric IPv4 address: '" + host + "'";
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = errno_message("socket");
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    *error = errno_message("connect");
    ::close(fd);
    return -1;
  }
  return fd;
}

bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    long n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {  // stdio-mode fd 1 is not a socket
      n = ::write(fd, data.data(), data.size());
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Non-blocking fd with a full send buffer: wait for the peer to
        // drain it (this IS the slow-consumer backpressure — the writing
        // worker blocks, never the poll loop).
        pollfd p{fd, POLLOUT, 0};
        (void)::poll(&p, 1, -1);
        continue;
      }
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

long read_some(int fd, std::string* out, std::size_t max_bytes) {
  char buf[65536];
  if (max_bytes > sizeof(buf)) max_bytes = sizeof(buf);
  for (;;) {
    const long n = ::read(fd, buf, max_bytes);
    if (n < 0 && errno == EINTR) continue;
    if (n > 0) out->append(buf, static_cast<std::size_t>(n));
    return n;
  }
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) >= 0;
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace wmatch::net
