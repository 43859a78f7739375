// Resident daemon loopback: a Server on a temp Unix socket, exercised
// through the Client. Results must be byte-identical to a direct
// RunBatch, warm resubmissions must be served by the memory tier with
// zero engine invocations, saturation must answer `busy` deterministically
// and a stop request must drain cleanly (write-behind settled, socket
// unlinked). Runs under TSan in CI.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "io/hcl.h"
#include "obs/metrics.h"
#include "service/batch.h"
#include "service/client.h"
#include "service/server.h"
#include "workload/kernels.h"

namespace hcrf {
namespace {

namespace fs = std::filesystem;

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::path(::testing::TempDir()) /
            ("hcrf-daemon-" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override {
    StopServer();
    fs::remove_all(base_);
  }

  std::string SocketPath() const { return (base_ / "sock").string(); }
  std::string CacheDir() const { return (base_ / "cache").string(); }

  /// Binds, then serves on a background thread until StopServer().
  void StartServer(service::ServerOptions opt) {
    opt.socket_path = SocketPath();
    server_ = std::make_unique<service::Server>(opt);
    server_->Start();
    serve_thread_ = std::thread([this] { server_->Serve(); });
  }

  void StopServer() {
    if (server_ == nullptr) return;
    server_->RequestStop();
    if (serve_thread_.joinable()) serve_thread_.join();
    server_.reset();
  }

  fs::path base_;
  std::unique_ptr<service::Server> server_;
  std::thread serve_thread_;
};

/// Three kernels on the paper's proposed organization — the same request
/// set for the daemon and the direct-RunBatch reference.
std::vector<service::BatchRequest> KernelRequests() {
  const MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("4C16S64/2-1"));
  std::vector<service::BatchRequest> requests;
  for (workload::Loop loop :
       {workload::MakeDaxpy(), workload::MakeDot(), workload::MakeVadd()}) {
    service::BatchRequest req;
    req.id = loop.ddg.name();
    req.loop = std::make_shared<const workload::Loop>(std::move(loop));
    req.machine = m;
    requests.push_back(std::move(req));
  }
  return requests;
}

TEST_F(DaemonTest, SubmitMatchesDirectRunBatchByteForByte) {
  service::ServerOptions opt;
  opt.service.cache_dir = CacheDir();
  opt.service.cache_mem_entries = 64;
  StartServer(opt);

  const std::vector<service::BatchRequest> requests = KernelRequests();
  const service::BatchReport direct =
      service::RunBatch(requests, service::BatchOptions{});

  service::Client client(SocketPath());
  ASSERT_TRUE(client.Ping());
  const service::SubmitReply reply = client.Submit(requests);
  ASSERT_FALSE(reply.busy);
  ASSERT_EQ(reply.items.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(reply.items[i].ok) << reply.items[i].error;
    EXPECT_EQ(io::DumpResult(direct.items[i].result),
              io::DumpResult(reply.items[i].result))
        << requests[i].id;
  }
}

TEST_F(DaemonTest, WarmResubmitIsMemoryServedWithoutEngineRuns) {
  service::ServerOptions opt;
  opt.service.cache_dir = CacheDir();
  opt.service.cache_mem_entries = 64;
  StartServer(opt);

  const std::vector<service::BatchRequest> requests = KernelRequests();
  service::Client client(SocketPath());
  const service::SubmitReply cold = client.Submit(requests);
  ASSERT_FALSE(cold.busy);
  for (const auto& item : cold.items) EXPECT_FALSE(item.cache_hit);

  const long mem_hits_before = server_->session().memory_stats().hits;
  const long engine_runs_before = obs::GetCounter("engine.runs").value();
  const service::SubmitReply warm = client.Submit(requests);
  ASSERT_FALSE(warm.busy);
  ASSERT_EQ(warm.items.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(warm.items[i].cache_hit) << requests[i].id;
    EXPECT_EQ(io::DumpResult(cold.items[i].result),
              io::DumpResult(warm.items[i].result));
  }
  EXPECT_GT(server_->session().memory_stats().hits, mem_hits_before);
  EXPECT_EQ(obs::GetCounter("engine.runs").value(), engine_runs_before);
}

TEST_F(DaemonTest, ConcurrentClientsAllServedIdentically) {
  service::ServerOptions opt;
  opt.max_inflight = 4;
  opt.service.cache_dir = CacheDir();
  opt.service.cache_mem_entries = 64;
  StartServer(opt);

  const std::vector<service::BatchRequest> requests = KernelRequests();
  const std::string socket = SocketPath();
  constexpr int kClients = 3;
  std::vector<service::SubmitReply> replies(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&socket, &requests, &replies, c] {
      service::Client client(socket);
      replies[c] = client.Submit(requests);
    });
  }
  for (std::thread& t : clients) t.join();

  for (const service::SubmitReply& reply : replies) {
    ASSERT_FALSE(reply.busy);  // max_inflight covers every client
    ASSERT_EQ(reply.items.size(), requests.size());
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    for (int c = 1; c < kClients; ++c) {
      EXPECT_EQ(io::DumpResult(replies[0].items[i].result),
                io::DumpResult(replies[c].items[i].result));
    }
  }
}

TEST_F(DaemonTest, SaturationAnswersBusy) {
  service::ServerOptions opt;
  opt.max_inflight = 1;
  opt.read_timeout_ms = 5000;  // a wedged slot frees itself eventually
  StartServer(opt);

  // Hold the single slot with a connection that never sends its request:
  // admission happens at accept time, so an idle connection occupies the
  // slot until it is closed (or times out). Unix sockets accept in FIFO
  // order, so the ping below is deterministically behind this connect.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string socket_path = SocketPath();
  ASSERT_LT(socket_path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int stall_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(stall_fd, 0);
  ASSERT_EQ(::connect(stall_fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  service::Client client(socket_path);
  EXPECT_FALSE(client.Ping());  // saturated: busy
  EXPECT_GE(server_->bounced(), 1);

  ::close(stall_fd);  // frees the slot once the handler notices EOF
  bool served = false;
  for (int i = 0; i < 200 && !served; ++i) {
    served = client.Ping();
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(served);
}

TEST_F(DaemonTest, MalformedRequestGetsErrorReplyAndDaemonSurvives) {
  service::ServerOptions opt;
  StartServer(opt);

  {
    // Raw connection speaking garbage: the reply must be an error frame,
    // not a dropped daemon.
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const std::string socket_path = SocketPath();
    ASSERT_LT(socket_path.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const char bad[] = "hcrf 1 frobnicate\n";
    ASSERT_EQ(::write(fd, bad, sizeof(bad) - 1),
              static_cast<ssize_t>(sizeof(bad) - 1));
    char reply[64] = {};
    const ssize_t n = ::read(fd, reply, sizeof(reply) - 1);
    ASSERT_GT(n, 0);
    EXPECT_EQ(std::string(reply, 12), "hcrf 1 error");
    ::close(fd);
  }

  service::Client client(SocketPath());
  EXPECT_TRUE(client.Ping());  // the daemon lives
}

TEST_F(DaemonTest, StatsAndCacheStatsEndpoints) {
  service::ServerOptions opt;
  opt.service.cache_dir = CacheDir();
  // 64 entries over the default 16 shards leaves room for all three
  // kernels even if they hash to one shard.
  opt.service.cache_mem_entries = 64;
  StartServer(opt);

  service::Client client(SocketPath());
  client.Submit(KernelRequests());

  const std::string stats = client.Stats();
  EXPECT_NE(stats.find("service.requests"), std::string::npos);
  EXPECT_NE(stats.find("server.connections"), std::string::npos);

  const std::string cache_stats = client.CacheStats();
  EXPECT_EQ(cache_stats.rfind("hcl 1 cache-stats\n", 0), 0u);
  EXPECT_NE(cache_stats.find("\nentries 3\n"), std::string::npos) << cache_stats;
  EXPECT_NE(cache_stats.find("\nmem_hits "), std::string::npos);
}

TEST_F(DaemonTest, StopDrainsWriteBehindAndUnlinksSocket) {
  service::ServerOptions opt;
  opt.service.cache_dir = CacheDir();
  opt.service.cache_mem_entries = 64;
  StartServer(opt);

  service::Client client(SocketPath());
  const service::SubmitReply reply = client.Submit(KernelRequests());
  ASSERT_FALSE(reply.busy);
  StopServer();

  // After a clean drain the disk tier holds every scheduled entry and the
  // socket path is gone.
  EXPECT_EQ(service::DiskTier::Scan(CacheDir()).entries, 3);
  EXPECT_FALSE(fs::exists(SocketPath()));
}

// A saturated daemon writes `busy` and closes without reading the
// request. When that close lands before the client writes, the write
// fails (EPIPE) although the reply is already queued on the client's end:
// the exchange must still read it instead of reporting a lost connection.
// A socketpair fixes that ordering, which a live daemon only hits by
// chance.
TEST(ClientExchange, BusyReplyQueuedBeforeAFailedWriteIsStillRead) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string busy = "hcrf 1 busy\n";
  ASSERT_EQ(::write(fds[1], busy.data(), busy.size()),
            static_cast<ssize_t>(busy.size()));
  ::close(fds[1]);

  service::wire::Conn conn(fds[0]);
  ASSERT_FALSE(conn.WriteAll("probe\n"));  // the peer is gone: EPIPE
  bool body_ran = false;
  const std::vector<std::string> toks =
      service::Exchange(conn, "submit 1", [&] { body_ran = true; });
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[2], "busy");
  EXPECT_FALSE(body_ran);  // nothing to send the blocks to
}

// Without a queued reply, a failed write is a lost connection.
TEST(ClientExchange, FailedWriteWithoutAReplyIsAConnectionLoss) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  service::wire::Conn conn(fds[0]);
  try {
    service::Exchange(conn, "ping");
    FAIL() << "expected the exchange to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("connection lost"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace hcrf
