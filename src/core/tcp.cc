#include "core/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace strato::core {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Block until `fd` is ready for `events` (POLLIN/POLLOUT), retrying
/// EINTR. Used to preserve write-all/read-something semantics when the fd
/// is O_NONBLOCK (the async transport shares connections with blocking
/// helpers in tests).
void wait_ready(int fd, short events) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  for (;;) {
    const int r = ::poll(&p, 1, -1);
    if (r >= 0) return;
    if (errno != EINTR) fail("poll");
  }
}

/// Common per-connection socket options. SIGPIPE audit: Linux has no
/// SO_NOSIGPIPE, so every ::send carries MSG_NOSIGNAL instead; on BSDs
/// the option suppresses the signal for all writers of the fd.
void configure_connection(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
#ifdef SO_NOSIGPIPE
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof one);
#endif
}

}  // namespace

TcpConnection::~TcpConnection() { close(); }

TcpConnection& TcpConnection::operator=(TcpConnection&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

TcpConnection TcpConnection::connect(const std::string& host,
                                     std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bad address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    int err = errno;
    if (err == EINTR) {
      // An interrupted connect completes in the background: wait for it
      // and take its outcome from SO_ERROR.
      wait_ready(fd, POLLOUT);
      socklen_t len = sizeof err;
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) err = errno;
    }
    if (err != 0) {
      ::close(fd);
      errno = err;
      fail("connect");
    }
  }
  configure_connection(fd);
  return TcpConnection(fd);
}

void TcpConnection::write(common::ByteSpan data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Non-blocking fd with a full kernel buffer: keep the blocking
        // write-all contract by waiting for writability.
        wait_ready(fd_, POLLOUT);
        continue;
      }
      fail("send");
    }
    off += static_cast<std::size_t>(n);
  }
}

common::Bytes TcpConnection::read(std::size_t max_bytes) {
  common::Bytes buf(max_bytes);
  for (;;) {
    const ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        wait_ready(fd_, POLLIN);
        continue;
      }
      fail("recv");
    }
    buf.resize(static_cast<std::size_t>(n));
    return buf;
  }
}

void TcpConnection::shutdown_send() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void TcpConnection::set_nonblocking(bool on) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) fail("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (flags != want && ::fcntl(fd_, F_SETFL, want) != 0) {
    fail("fcntl(F_SETFL)");
  }
}

void TcpConnection::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::TcpListener(std::uint16_t port, int backlog) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) fail("socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    fail("bind");
  }
  if (::listen(fd_, backlog) != 0) fail("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

TcpConnection TcpListener::accept() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      fail("accept");
    }
    // Accepted sockets get the same options as connected ones (the old
    // code left TCP_NODELAY unset server-side — an audit finding: the
    // server's small framed writes sat in Nagle buffers).
    configure_connection(fd);
    return TcpConnection(fd);
  }
}

}  // namespace strato::core
