// Thin RAII wrappers over POSIX TCP sockets for the network service.
//
// Socket owns one connected file descriptor and offers exactly the two
// primitives the framed protocol needs: SendAll (retries short writes,
// suppresses SIGPIPE) and RecvAll (retries short reads, reports EOF as a
// typed kUnavailable Status so the frame layer can tell a clean peer
// close from a truncated frame). Listener owns a listening descriptor
// bound to a host/port — port 0 binds an ephemeral port, reported back by
// port(), which is how tests and the bench get collision-free loopback
// servers. Shutdown() wakes a thread blocked in Accept()/RecvAll() on
// another thread, which is the server's graceful-stop lever; Close() only
// releases the descriptor.
//
// Everything fallible returns Status — no exceptions, no errno leaks.

#ifndef PIGEONRING_NET_SOCKET_H_
#define PIGEONRING_NET_SOCKET_H_

#include <cstddef>
#include <string>

#include "common/status.h"

namespace pigeonring::net {

class Socket {
 public:
  /// An empty handle; valid() is false.
  Socket() = default;
  /// Takes ownership of a connected descriptor (-1 = empty).
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes all `size` bytes, retrying short writes and EINTR. SIGPIPE is
  /// suppressed (MSG_NOSIGNAL); a peer reset surfaces as kUnavailable.
  Status SendAll(const void* data, size_t size);

  /// Reads exactly `size` bytes. kUnavailable with message "connection
  /// closed" when the peer closed cleanly before the first byte;
  /// kDataLoss when EOF lands mid-buffer (the caller asked for bytes the
  /// peer never sent).
  Status RecvAll(void* data, size_t size);

  /// Half-closes both directions, waking a peer (or own thread) blocked
  /// in RecvAll. The descriptor stays owned; Close() still runs.
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
};

/// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1").
StatusOr<Socket> ConnectTcp(const std::string& host, int port);

class Listener {
 public:
  Listener() = default;
  ~Listener() { Close(); }
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens on host:port; port 0 picks an ephemeral port
  /// (readable from port() afterwards).
  static StatusOr<Listener> Bind(const std::string& host, int port);

  bool valid() const { return fd_ >= 0; }
  /// The actually-bound port (resolves port-0 binds).
  int port() const { return port_; }

  /// Blocks for one connection, skipping connections that failed in the
  /// backlog (ECONNABORTED, EPROTO and the network errors Linux reports
  /// on them). kUnavailable once Shutdown() was called or the descriptor
  /// is gone (the accept loop's exit signal); kResourceExhausted when the
  /// process or system is out of descriptors or memory (the connection
  /// stays queued: retry after a pause); kInternal otherwise.
  StatusOr<Socket> Accept();

  /// Wakes a blocked Accept() on another thread; further Accepts fail
  /// with kUnavailable.
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

}  // namespace pigeonring::net

#endif  // PIGEONRING_NET_SOCKET_H_
