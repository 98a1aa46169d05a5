// pigeonring::net::Server — the network face of an api::Db.
//
// One Server owns a TCP accept loop over a loopback-or-explicit IPv4
// listener and serves the framed binary protocol of net/protocol.h. The
// concurrency shape mirrors the api layer's ownership rules exactly:
//
//  * One api::Session per connection. Each connection thread mints its
//    session lazily and re-mints it whenever any connection has mutated
//    the database since (a server-wide mutation sequence number), so a
//    client that inserts through the server observes its own writes on
//    the next request — on any connection.
//  * Read ops (search / batch / self-join) run on the connection thread
//    through its Session; a batch or join still fans out over the
//    snapshot executor's pool inside that synchronous call.
//  * Mutation ops (insert / remove / compact) funnel through one shared
//    api::Writer behind a mutex — the single-writer contract, enforced
//    server-side. The writer is created on the first mutation op, so a
//    read-only server can share a Db with another writer (or server).
//
// Admission control: at most `max_inflight` admission-controlled ops
// (everything except ping / stats / record) execute concurrently — the
// only bound on concurrent reads. Arrivals beyond that are shed at once
// with a typed kResourceExhausted error frame: a fast, explicit signal
// instead of unbounded queueing. max_inflight = 0 sheds every such op
// (useful for overload tests).
//
// Robustness: malformed frames never crash the server — recoverable ones
// (payload CRC mismatch, stale protocol version, undecodable payload,
// unknown op) earn a typed error frame on a still-open connection, while
// stream-desyncing ones (bad magic, oversized declared length, truncation)
// earn a best-effort error frame and a close; an op that throws earns a
// kInternal error frame and a fresh session. A failed accept never ends
// the accept loop: a connection lost in the backlog is skipped, and fd or
// memory exhaustion (EMFILE, ENFILE, ENOBUFS, ENOMEM) pauses the loop
// briefly and retries, so the server accepts again once descriptors free
// up; only Stop() ends it. Stop() is graceful: it stops accepting, waits
// for every in-flight op to finish and deliver its reply, then wakes idle
// connections and joins all threads.
//
// Per-op latency histograms (common/histogram, microseconds) are exported
// through the stats op and Snapshot().

#ifndef PIGEONRING_NET_SERVER_H_
#define PIGEONRING_NET_SERVER_H_

#include <memory>
#include <string>

#include "api/db.h"
#include "common/status.h"
#include "net/protocol.h"

namespace pigeonring::net {

struct ServerOptions {
  /// Numeric IPv4 address to bind (loopback by default).
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the real one from Server::port().
  int port = 0;
  /// Admission-controlled ops allowed in flight at once; arrivals beyond
  /// this are shed with kResourceExhausted. 0 sheds all of them.
  int max_inflight = 64;
};

class Server {
 public:
  /// Binds, starts the accept loop, and serves `db` until Stop(). The Db
  /// handle is copied — the caller's handle stays usable (e.g. to Save
  /// after remote mutations). Typed errors: kInvalidArgument for bad
  /// options, kUnavailable when the bind fails.
  static StatusOr<Server> Start(api::Db db, const ServerOptions& options = {});

  Server(Server&&) noexcept;
  Server& operator=(Server&&) noexcept;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  /// Implies Stop().
  ~Server();

  /// The bound port (resolves port-0 binds).
  int port() const;

  /// Graceful shutdown: stop accepting, drain in-flight ops (their replies
  /// are delivered), wake idle connections, join every thread, release the
  /// writer. Idempotent; safe from any thread.
  void Stop();

  /// The same counters and per-op latency digests the stats op serves,
  /// without a connection. Safe to call concurrently with traffic.
  ServerStats Snapshot() const;

 private:
  struct Impl;
  explicit Server(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace pigeonring::net

#endif  // PIGEONRING_NET_SERVER_H_
