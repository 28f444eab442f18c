// Thin POSIX socket helpers shared by the net listener (net/server.h)
// and the load generator (net/loadgen.h). No third-party dependencies —
// plain ::socket/::bind/::listen/::poll — and no exceptions: every
// fallible call returns -1/false and fills an errno-derived message, so
// the CLI can map bind/connect failures onto its usage-error contract
// (exit 2) and the server can treat a dead peer as an ordinary
// connection close rather than a crash.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace wmatch::net {

/// Valid TCP port range for --listen / --connect flag validation
/// (0 is allowed for --listen only: "pick an ephemeral port").
inline constexpr int kMaxPort = 65535;

/// Opens a TCP listener on 127.0.0.1:`port` (port 0 = ephemeral) with
/// SO_REUSEADDR. Returns the listening fd, or -1 with *error set.
int listen_tcp(int port, std::string* error);

/// The port a bound socket actually listens on (resolves port 0).
/// Returns -1 on failure.
int bound_port(int fd);

/// Accepts one pending connection on `listen_fd`, retrying on EINTR, and
/// sets TCP_NODELAY on it: every response is a small write, which Nagle
/// would otherwise hold until the peer ACKs the previous one. Returns the
/// connected fd, or -1 when none is pending (or accept failed).
int accept_tcp(int listen_fd);

/// Blocking connect to host:port. Returns the connected fd, or -1 with
/// *error set. `host` must be a numeric IPv4 address ("127.0.0.1").
int connect_tcp(const std::string& host, int port, std::string* error);

/// Writes the whole buffer, retrying on EINTR / partial writes, with
/// SIGPIPE suppressed per-call (MSG_NOSIGNAL) so a peer that hung up
/// surfaces as `false`, not a process signal. Works on pipes and
/// regular fds too (falls back to ::write when ::send reports ENOTSOCK).
bool write_all(int fd, std::string_view data);

/// One ::read/::recv, retrying on EINTR: appends up to `max_bytes` to
/// *out. Returns the byte count, 0 on EOF, -1 on error (including
/// EAGAIN on a non-blocking fd with nothing buffered).
long read_some(int fd, std::string* out, std::size_t max_bytes = 65536);

/// Marks the fd non-blocking (the server's poll loop must never stall
/// inside a read while other connections wait). Returns false on error.
bool set_nonblocking(int fd);

void close_fd(int fd);

}  // namespace wmatch::net
