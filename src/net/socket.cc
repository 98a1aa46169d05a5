#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

namespace pigeonring::net {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

// Numeric-IPv4-only address resolution keeps the dependency surface tiny
// (no getaddrinfo, no DNS); the service targets loopback and explicit
// addresses.
StatusOr<sockaddr_in> MakeAddr(const std::string& host, int port) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("port must be in [0, 65535], got " +
                                   std::to_string(port));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: '" + host +
                                   "'");
  }
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Status Socket::SendAll(const void* data, size_t size) {
  if (!valid()) return Status::FailedPrecondition("send on a closed socket");
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::send(fd_, p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("send failed"));
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status Socket::RecvAll(void* data, size_t size) {
  if (!valid()) return Status::FailedPrecondition("recv on a closed socket");
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd_, p + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("recv failed"));
    }
    if (n == 0) {
      if (got == 0) return Status::Unavailable("connection closed");
      return Status::DataLoss("connection closed mid-read (" +
                              std::to_string(got) + " of " +
                              std::to_string(size) + " bytes)");
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

void Socket::Shutdown() {
  if (valid()) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<Socket> ConnectTcp(const std::string& host, int port) {
  auto addr = MakeAddr(host, port);
  if (!addr.ok()) return addr.status();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(Errno("socket failed"));
  Socket sock(fd);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&*addr),
                sizeof(*addr)) != 0) {
    return Status::Unavailable(Errno("connect to " + host + ":" +
                                     std::to_string(port) + " failed"));
  }
  // Request/response frames are small; without TCP_NODELAY every
  // round-trip would eat Nagle's 40ms delayed-ACK stall.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

StatusOr<Listener> Listener::Bind(const std::string& host, int port) {
  auto addr = MakeAddr(host, port);
  if (!addr.ok()) return addr.status();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(Errno("socket failed"));
  Listener listener;
  listener.fd_ = fd;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&*addr), sizeof(*addr)) !=
      0) {
    return Status::Unavailable(Errno("bind to " + host + ":" +
                                     std::to_string(port) + " failed"));
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    return Status::Internal(Errno("listen failed"));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return Status::Internal(Errno("getsockname failed"));
  }
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

StatusOr<Socket> Listener::Accept() {
  if (!valid()) return Status::FailedPrecondition("accept on closed listener");
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    switch (errno) {
      case EINTR:
      // The connection died in the backlog, or (Linux) a network error was
      // already pending on it: that connection is lost, the listener is
      // fine.
      case ECONNABORTED:
      case EPROTO:
      case ENETDOWN:
      case ENOPROTOOPT:
      case EHOSTDOWN:
      case EHOSTUNREACH:
      case ENETUNREACH:
        continue;
      case EMFILE:
      case ENFILE:
      case ENOBUFS:
      case ENOMEM:
        return Status::ResourceExhausted(Errno("accept failed"));
      case EINVAL:  // shutdown() listener
      case EBADF:
        return Status::Unavailable(Errno("accept failed"));
      default:
        return Status::Internal(Errno("accept failed"));
    }
  }
}

void Listener::Shutdown() {
  if (valid()) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace pigeonring::net
