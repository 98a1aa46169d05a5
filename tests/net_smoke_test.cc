// End-to-end smoke of the network service on a loopback ephemeral port:
// real TCP, real frames. Pins the acceptance contract of the net
// subsystem: client search / batch / self-join results are byte-identical
// to an in-process api::Session over the same snapshot (all four
// domains, a sharded index, and four connections at once), queries of
// the wrong domain or shape get typed errors, mutations through the
// server converge identically to direct api::Writer use (down to Save()
// byte-identity), overload produces typed kResourceExhausted frames,
// stats expose admission counters and per-op latency histograms, the
// accept loop outlives descriptor exhaustion, and graceful shutdown
// drains in-flight ops.
//
// Runs under the TSan CI job — keep the datasets small.

#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/db.h"
#include "api_test_util.h"
#include "common/bitvector.h"
#include "datagen/binary_vectors.h"
#include "datagen/graphs.h"
#include "datagen/strings.h"
#include "datagen/token_sets.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "storage/bytes.h"

namespace pigeonring::net {
namespace {

api::Db OpenOrDie(const api::IndexSpec& spec, api::Dataset dataset) {
  auto opened = api::Db::Open(spec, std::move(dataset));
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

api::Db OpenHamming(uint64_t seed = 3301, int shards = 1) {
  datagen::BinaryVectorConfig config;
  config.dimensions = 64;
  config.num_objects = 200;
  config.num_clusters = 12;
  config.cluster_fraction = 0.6;
  config.flip_rate = 0.05;
  config.seed = seed;
  api::IndexSpec spec;
  spec.domain = api::Domain::kHamming;
  spec.tau = 8;
  spec.chain_length = 3;
  spec.shards = shards;
  return OpenOrDie(spec, api::Dataset(datagen::GenerateBinaryVectors(config)));
}

api::Db OpenSets() {
  datagen::TokenSetConfig config;
  config.num_records = 200;
  config.avg_tokens = 12;
  config.universe_size = 600;
  config.duplicate_fraction = 0.4;
  config.seed = 3303;
  api::IndexSpec spec;
  spec.domain = api::Domain::kSet;
  spec.tau = 0.7;
  spec.chain_length = 2;
  return OpenOrDie(spec, api::Dataset(datagen::GenerateTokenSets(config)));
}

api::Db OpenStrings() {
  datagen::StringConfig config;
  config.num_records = 150;
  config.avg_length = 14;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 2;
  config.seed = 3305;
  api::IndexSpec spec;
  spec.domain = api::Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 3;
  return OpenOrDie(spec, api::Dataset(datagen::GenerateStrings(config)));
}

api::Db OpenGraphs() {
  datagen::GraphConfig config;
  config.num_graphs = 40;
  config.avg_vertices = 8;
  config.avg_edges = 9;
  config.vertex_labels = 8;
  config.duplicate_fraction = 0.4;
  config.max_perturb_ops = 2;
  config.seed = 3307;
  api::IndexSpec spec;
  spec.domain = api::Domain::kGraph;
  spec.tau = 2;
  spec.chain_length = 2;
  return OpenOrDie(spec, api::Dataset(datagen::GenerateGraphs(config)));
}

std::vector<api::Query> SampleQueries(api::Session& session, int count) {
  std::vector<api::Query> queries;
  const int n = session.num_records();
  for (int i = 0; i < count; ++i) {
    auto query = session.RecordQuery((i * 7) % n);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    queries.push_back(std::move(query).value());
  }
  return queries;
}

Client ConnectOrDie(int port) {
  auto client = Client::Connect("127.0.0.1", port);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

std::vector<uint8_t> QueryBytes(const api::Query& query) {
  storage::ByteWriter w;
  EncodeQuery(w, query);
  return std::move(w).Take();
}

// The acceptance pin: over real TCP, search / batch / self-join results
// must be byte-identical to an in-process Session on the same snapshot.
void ExpectClientMatchesInProcess(api::Db db) {
  api::Session session = db.NewSession();
  const std::vector<api::Query> queries = SampleQueries(session, 12);

  auto server = Server::Start(db);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Client client = ConnectOrDie(server->port());
  ASSERT_TRUE(client.Ping().ok());

  // Single-query search, query by query.
  for (const api::Query& query : queries) {
    auto in_process = session.Search(query);
    ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
    auto remote = client.Search(query);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    EXPECT_EQ(remote->ids, in_process->ids);
    EXPECT_EQ(remote->candidates, in_process->stats.candidates);
    EXPECT_EQ(remote->results, in_process->stats.results);
  }

  // Batch.
  auto in_batch = session.SearchBatch(queries);
  ASSERT_TRUE(in_batch.ok());
  auto remote_batch = client.SearchBatch(queries);
  ASSERT_TRUE(remote_batch.ok()) << remote_batch.status().ToString();
  EXPECT_EQ(remote_batch->ids, in_batch->ids);
  EXPECT_EQ(remote_batch->candidates, in_batch->stats.candidates);

  // Self-join.
  auto in_join = session.SelfJoin();
  ASSERT_TRUE(in_join.ok());
  auto remote_join = client.SelfJoin();
  ASSERT_TRUE(remote_join.ok()) << remote_join.status().ToString();
  EXPECT_EQ(remote_join->pairs, in_join->pairs);
  EXPECT_EQ(remote_join->candidates, in_join->stats.candidates);

  // Record sampling round-trips the same record the session sees.
  auto remote_record = client.RecordQuery(3);
  ASSERT_TRUE(remote_record.ok());
  auto local_record = session.RecordQuery(3);
  ASSERT_TRUE(local_record.ok());
  EXPECT_EQ(QueryBytes(*remote_record), QueryBytes(*local_record));
  EXPECT_EQ(client.RecordQuery(-1).status().code(), StatusCode::kOutOfRange);

  server->Stop();
}

TEST(NetSmoke, ClientMatchesInProcessHamming) {
  ExpectClientMatchesInProcess(OpenHamming());
}

TEST(NetSmoke, ClientMatchesInProcessSets) {
  ExpectClientMatchesInProcess(OpenSets());
}

TEST(NetSmoke, ClientMatchesInProcessStrings) {
  ExpectClientMatchesInProcess(OpenStrings());
}

TEST(NetSmoke, ClientMatchesInProcessGraphs) {
  ExpectClientMatchesInProcess(OpenGraphs());
}

// Served reads reach shard scatter-gather from a connection thread:
// single searches through ScatterSearchOne, batch and join through the
// per-shard executors.
TEST(NetSmoke, ClientMatchesInProcessShardedHamming) {
  ExpectClientMatchesInProcess(OpenHamming(3301, /*shards=*/4));
}

// Four connections search at once, so four connection threads run inside
// searcher code concurrently; every reply must still equal the
// in-process answer.
TEST(NetSmoke, ConcurrentConnectionsMatchInProcess) {
  constexpr int kConnections = 4;
  api::Db db = OpenHamming();
  api::Session session = db.NewSession();
  const std::vector<api::Query> queries = SampleQueries(session, 16);
  std::vector<std::vector<int>> expected;
  for (const api::Query& query : queries) {
    auto in_process = session.Search(query);
    ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
    expected.push_back(in_process->ids);
  }

  auto server = Server::Start(db);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  std::vector<Client> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(ConnectOrDie(server->port()));
  }
  // Per connection: replies that matched, out of queries.size() + 1.
  std::vector<int> matched(kConnections, 0);
  std::latch start(kConnections);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      start.arrive_and_wait();
      for (size_t q = 0; q < queries.size(); ++q) {
        auto remote = clients[c].Search(queries[q]);
        if (remote.ok() && remote->ids == expected[q]) ++matched[c];
      }
      auto remote_batch = clients[c].SearchBatch(queries);
      if (remote_batch.ok() && remote_batch->ids == expected) ++matched[c];
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int c = 0; c < kConnections; ++c) {
    EXPECT_EQ(matched[c], static_cast<int>(queries.size()) + 1)
        << "connection " << c;
  }
  EXPECT_EQ(server->Snapshot().accepted,
            kConnections * (static_cast<int64_t>(queries.size()) + 1));
}

// Well-framed, decodable queries of the wrong domain or shape earn a typed
// kInvalidArgument on search and batch alike, and the connection keeps
// serving.
TEST(NetSmoke, MismatchedQueriesGetTypedErrorsAndKeepConnection) {
  api::Db db = OpenHamming();  // 64-dimensional codes
  api::Session session = db.NewSession();
  const api::Query valid = SampleQueries(session, 1)[0];
  auto expected = session.Search(valid);
  ASSERT_TRUE(expected.ok());

  auto server = Server::Start(db);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Client client = ConnectOrDie(server->port());
  const std::vector<api::Query> mismatched = {
      api::Query(std::string("not a code")), api::Query(BitVector(128))};
  for (const api::Query& wrong : mismatched) {
    const Status search = client.Search(wrong).status();
    EXPECT_EQ(search.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(search.message().find("malformed"), std::string::npos)
        << "must decode, then fail validation: " << search.ToString();
    auto after_search = client.Search(valid);
    ASSERT_TRUE(after_search.ok()) << after_search.status().ToString();
    EXPECT_EQ(after_search->ids, expected->ids);

    const Status batch = client.SearchBatch({valid, wrong}).status();
    EXPECT_EQ(batch.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(batch.message().find("query 1"), std::string::npos)
        << batch.ToString();
    auto after_batch = client.Search(valid);
    ASSERT_TRUE(after_batch.ok()) << after_batch.status().ToString();
    EXPECT_EQ(after_batch->ids, expected->ids);
  }
  EXPECT_EQ(server->Snapshot().protocol_errors, 0);
}

// Mutations through the server must converge identically to driving an
// api::Writer directly — same results, same record counts, and (after
// compaction) byte-identical Save() files.
TEST(NetSmoke, MutationsConvergeLikeDirectWriter) {
  api::Db served = OpenHamming(4401);
  api::Db direct = OpenHamming(4401);  // identical twin, mutated locally

  auto server = Server::Start(served);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Client client = ConnectOrDie(server->port());
  auto writer = direct.NewWriter();
  ASSERT_TRUE(writer.ok());

  // Identical mutation sequences: insert two records sampled from the
  // dataset, remove one original and one insert, then compact.
  api::Session sampler = direct.NewSession();
  const std::vector<api::Query> inserts = SampleQueries(sampler, 2);
  std::vector<int> remote_ids;
  std::vector<int> direct_ids;
  for (const api::Query& record : inserts) {
    auto remote = client.Insert(record);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    remote_ids.push_back(*remote);
    auto local = writer->Insert(record);
    ASSERT_TRUE(local.ok());
    direct_ids.push_back(*local);
  }
  EXPECT_EQ(remote_ids, direct_ids) << "id assignment must match";

  // Read-your-writes: the inserted record matches itself on the next
  // request, through the server, on this same connection.
  auto self_search = client.Search(inserts[0]);
  ASSERT_TRUE(self_search.ok());
  EXPECT_TRUE(std::find(self_search->ids.begin(), self_search->ids.end(),
                        remote_ids[0]) != self_search->ids.end());

  ASSERT_TRUE(client.Remove(5).ok());
  ASSERT_TRUE(writer->Remove(5).ok());
  ASSERT_TRUE(client.Remove(remote_ids[1]).ok());
  ASSERT_TRUE(writer->Remove(direct_ids[1]).ok());
  // The writer's typed no-op travels the wire typed.
  EXPECT_EQ(client.Remove(999999).code(), StatusCode::kNotFound);

  ASSERT_TRUE(client.Compact().ok());
  ASSERT_TRUE(writer->Compact().ok());

  // Converged: same counts, same results for the same queries.
  EXPECT_EQ(served.num_records(), direct.num_records());
  api::Session direct_session = direct.NewSession();
  const std::vector<api::Query> queries = SampleQueries(direct_session, 10);
  auto expected = direct_session.SearchBatch(queries);
  ASSERT_TRUE(expected.ok());
  auto remote = client.SearchBatch(queries);
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(remote->ids, expected->ids);

  // The strongest pin: both databases serialize byte-identically.
  EXPECT_EQ(api::SavedBytes(served, "served.pgri"),
            api::SavedBytes(direct, "direct.pgri"));

  server->Stop();
}

// A second connection opened before a mutation must observe it afterwards
// (the server re-mints per-connection sessions on mutation).
TEST(NetSmoke, MutationsAreVisibleAcrossConnections) {
  api::Db db = OpenHamming(4403);
  auto server = Server::Start(db);
  ASSERT_TRUE(server.ok());
  Client writer_client = ConnectOrDie(server->port());
  Client reader_client = ConnectOrDie(server->port());
  ASSERT_TRUE(reader_client.Ping().ok());  // session minted pre-mutation

  api::Session sampler = db.NewSession();
  const api::Query record = SampleQueries(sampler, 1)[0];
  auto id = writer_client.Insert(record);
  ASSERT_TRUE(id.ok());

  auto seen = reader_client.Search(record);
  ASSERT_TRUE(seen.ok());
  EXPECT_TRUE(std::find(seen->ids.begin(), seen->ids.end(), *id) !=
              seen->ids.end())
      << "reader connection must observe the committed insert";
}

TEST(NetSmoke, StatsExposeCountersAndLatencyHistograms) {
  api::Db db = OpenHamming();
  api::Session session = db.NewSession();
  const std::vector<api::Query> queries = SampleQueries(session, 4);

  auto server = Server::Start(db);
  ASSERT_TRUE(server.ok());
  Client client = ConnectOrDie(server->port());
  for (const api::Query& query : queries) {
    ASSERT_TRUE(client.Search(query).ok());
  }
  ASSERT_TRUE(client.SearchBatch(queries).ok());

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->num_records, db.num_records());
  EXPECT_EQ(stats->epoch, db.epoch());
  EXPECT_EQ(stats->accepted, 5);  // 4 searches + 1 batch
  EXPECT_EQ(stats->shed, 0);
  EXPECT_EQ(stats->protocol_errors, 0);

  bool saw_search = false;
  bool saw_batch = false;
  for (const OpStats& op : stats->ops) {
    if (op.op == static_cast<uint8_t>(Op::kSearch)) {
      saw_search = true;
      EXPECT_EQ(op.count, 4);
      EXPECT_GT(op.p50_micros, 0);
      EXPECT_GE(op.p99_micros, op.p50_micros);
    }
    if (op.op == static_cast<uint8_t>(Op::kBatch)) {
      saw_batch = true;
      EXPECT_EQ(op.count, 1);
    }
  }
  EXPECT_TRUE(saw_search);
  EXPECT_TRUE(saw_batch);

  // An unsharded index reports a single placement row covering everything.
  ASSERT_EQ(stats->shards.size(), 1u);
  EXPECT_EQ(stats->shards[0].records, db.num_records());
  EXPECT_EQ(stats->shards[0].pending_delta, 0);

  // The in-process snapshot agrees with the wire view.
  ServerStats snapshot = server->Snapshot();
  EXPECT_EQ(snapshot.accepted, stats->accepted);
}

// A sharded served index exposes one placement row per shard: rows sum to
// the committed record count, served inserts surface as pending delta on
// the last shard, and compaction folds them back in.
TEST(NetSmoke, StatsExposePerShardPlacement) {
  datagen::BinaryVectorConfig config;
  config.dimensions = 64;
  config.num_objects = 202;
  config.num_clusters = 12;
  config.seed = 3309;
  api::IndexSpec spec;
  spec.domain = api::Domain::kHamming;
  spec.tau = 8;
  spec.chain_length = 3;
  spec.shards = 4;
  api::Db db =
      OpenOrDie(spec, api::Dataset(datagen::GenerateBinaryVectors(config)));

  auto server = Server::Start(db);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Client client = ConnectOrDie(server->port());

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->shards.size(), 4u);
  int total = 0;
  for (const ShardStats& shard : stats->shards) {
    total += shard.records;
    EXPECT_EQ(shard.pending_delta, 0);
  }
  EXPECT_EQ(total, db.num_records());

  // Two served inserts: ids 202 and 203 extend the last range, so both
  // land as pending delta on shard 3.
  api::Session sampler = db.NewSession();
  for (const api::Query& record : SampleQueries(sampler, 2)) {
    ASSERT_TRUE(client.Insert(record).ok());
  }
  stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->shards.size(), 4u);
  EXPECT_EQ(stats->shards[0].pending_delta, 0);
  EXPECT_EQ(stats->shards[1].pending_delta, 0);
  EXPECT_EQ(stats->shards[2].pending_delta, 0);
  EXPECT_EQ(stats->shards[3].pending_delta, 2);

  // Compaction folds the delta in; rows re-sum to the new total with no
  // pending rows left.
  ASSERT_TRUE(client.Compact().ok());
  stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->shards.size(), 4u);
  total = 0;
  for (const ShardStats& shard : stats->shards) {
    total += shard.records;
    EXPECT_EQ(shard.pending_delta, 0);
  }
  EXPECT_EQ(total, 204);
}

TEST(NetSmoke, OverloadShedsWithTypedResourceExhausted) {
  api::Db db = OpenHamming();
  api::Session session = db.NewSession();
  const api::Query query = SampleQueries(session, 1)[0];

  // max_inflight = 0 sheds every admission-controlled op — deterministic
  // overload.
  ServerOptions options;
  options.max_inflight = 0;
  auto server = Server::Start(db, options);
  ASSERT_TRUE(server.ok());
  Client client = ConnectOrDie(server->port());

  const Status shed = client.Search(query).status();
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.message().find("capacity"), std::string::npos);
  EXPECT_EQ(client.SelfJoin().status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(client.Insert(query).status().code(),
            StatusCode::kResourceExhausted);

  // Shedding is not an error spiral: the connection stays up and the
  // control plane (ping / stats / record) still answers.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.RecordQuery(0).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->shed, 3);
  EXPECT_EQ(stats->protocol_errors, 0);
}

// Lowers this process's soft RLIMIT_NOFILE and fills the descriptor table
// with /dev/null descriptors; the destructor restores the limit and then
// closes them. In that order the table has room again at once: freeing
// the fillers first would let a thread that accepts in the gap take the
// only free slot, leaving none for, say, a sanitizer's probe pipe.
class DescriptorSqueeze {
 public:
  DescriptorSqueeze() {
    if (getrlimit(RLIMIT_NOFILE, &saved_) != 0) return;
    rlimit lowered = saved_;
    lowered.rlim_cur = std::min<rlim_t>(saved_.rlim_cur, 256);
    if (setrlimit(RLIMIT_NOFILE, &lowered) != 0) return;
    restore_ = true;
    int fd;
    while ((fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC)) >= 0) {
      fillers_.push_back(fd);
    }
    ok_ = errno == EMFILE;
  }
  ~DescriptorSqueeze() {
    if (restore_) setrlimit(RLIMIT_NOFILE, &saved_);
    for (int fd : fillers_) ::close(fd);
  }
  DescriptorSqueeze(const DescriptorSqueeze&) = delete;
  DescriptorSqueeze& operator=(const DescriptorSqueeze&) = delete;

  bool ok() const { return ok_; }

 private:
  rlimit saved_{};
  bool restore_ = false;
  bool ok_ = false;
  std::vector<int> fillers_;
};

TEST(NetSmoke, AcceptResumesAfterDescriptorExhaustion) {
  api::Db db = OpenHamming();
  auto server = Server::Start(db);
  ASSERT_TRUE(server.ok());
  const int port = server->port();

  // While the table is full nothing may need a descriptor, because a
  // transient one (a sanitizer's probe pipe, opened the first time a
  // thread checks a polymorphic type) would leave a slot free once it
  // closes, and the server would accept into it. So the server's threads
  // are past their start first: a served client is connected and pinged,
  // and it stays connected, idle, until the limit is back. The queued
  // client's socket is made before the table fills, so its connect needs
  // no descriptor while the server's accept of it fails with EMFILE, and
  // no assertion formats a message until the squeeze is over.
  Client served = ConnectOrDie(port);
  ASSERT_TRUE(served.Ping().ok());
  Socket queued(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  ASSERT_TRUE(queued.valid()) << std::strerror(errno);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<uint16_t>(port));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool squeezed = false;
  int connected = -1;
  int connect_errno = 0;
  {
    DescriptorSqueeze squeeze;
    squeezed = squeeze.ok();
    connected = ::connect(queued.fd(), reinterpret_cast<sockaddr*>(&address),
                          sizeof(address));
    connect_errno = errno;
    // Let the accept loop run into the limit before it is lifted.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  ASSERT_TRUE(squeezed);
  ASSERT_EQ(connected, 0) << std::strerror(connect_errno);
  EXPECT_TRUE(served.Ping().ok());

  // Once descriptors are back, both the queued client and a fresh one are
  // served. A server that stopped accepting never replies: stopping it
  // resets the queued connections, so the pings return.
  auto pings = std::async(std::launch::async, [&] {
    auto fresh = Client::Connect("127.0.0.1", port);
    if (!fresh.ok()) return fresh.status();
    const Status fresh_ping = fresh->Ping();
    if (!fresh_ping.ok()) return fresh_ping;
    const uint8_t ping = static_cast<uint8_t>(Op::kPing);
    const Status sent = SendFrame(queued, ping, {});
    if (!sent.ok()) return sent;
    const FrameResult reply = RecvFrame(queued);
    if (!reply.status.ok()) return reply.status;
    return reply.frame.op == (ping | kReplyBit)
               ? Status::Ok()
               : Status::Internal("the queued ping got reply op " +
                                  std::to_string(reply.frame.op));
  });
  if (pings.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    ADD_FAILURE() << "no reply 10 s after descriptors were freed: the server "
                     "stopped accepting";
    server->Stop();
  }
  const Status pinged = pings.get();
  EXPECT_TRUE(pinged.ok()) << pinged.ToString();
}

TEST(NetSmoke, GracefulShutdownDrainsInFlightOps) {
  api::Db db = OpenHamming();
  auto server = Server::Start(db);
  ASSERT_TRUE(server.ok());
  const int port = server->port();

  // A client fires a self-join (the heaviest op) and must receive its
  // complete reply even though Stop() lands while it is in flight.
  std::optional<StatusOr<JoinReply>> remote_join;
  std::thread requester([&] {
    Client client = ConnectOrDie(port);
    remote_join.emplace(client.SelfJoin());
  });
  // Wait until the op is admitted (or already finished), then stop.
  while (server->Snapshot().accepted == 0) {
    std::this_thread::yield();
  }
  server->Stop();
  requester.join();

  ASSERT_TRUE(remote_join.has_value());
  ASSERT_TRUE(remote_join->ok())
      << "drained op must deliver its reply, got "
      << remote_join->status().ToString();
  api::Session session = db.NewSession();
  auto expected = session.SelfJoin();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ((*remote_join)->pairs, expected->pairs);

  // After Stop: no new connections, and Stop is idempotent.
  EXPECT_EQ(Client::Connect("127.0.0.1", port).status().code(),
            StatusCode::kUnavailable);
  server->Stop();
}

TEST(NetSmoke, StartRejectsBadOptionsTyped) {
  api::Db db = OpenHamming();
  ServerOptions bad_host;
  bad_host.host = "not-an-address";
  EXPECT_EQ(Server::Start(db, bad_host).status().code(),
            StatusCode::kInvalidArgument);
  ServerOptions bad_inflight;
  bad_inflight.max_inflight = -1;
  EXPECT_EQ(Server::Start(db, bad_inflight).status().code(),
            StatusCode::kInvalidArgument);

  // Binding the same explicit port twice fails typed.
  auto first = Server::Start(db);
  ASSERT_TRUE(first.ok());
  ServerOptions taken;
  taken.port = first->port();
  EXPECT_EQ(Server::Start(db, taken).status().code(),
            StatusCode::kUnavailable);
}

}  // namespace
}  // namespace pigeonring::net
