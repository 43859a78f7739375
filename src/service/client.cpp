#include "service/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "io/hcl.h"

namespace hcrf::service {

namespace {

[[noreturn]] void FailErrno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Reads the sized payload of a `hcrf 1 <verb> <bytes>` reply.
std::string ReadReplyPayload(wire::Conn& conn,
                             const std::vector<std::string>& toks) {
  if (toks.size() != 4) {
    throw wire::WireError("expected a sized reply, got verb '" + toks[2] +
                          "' with " + std::to_string(toks.size()) +
                          " tokens");
  }
  const std::optional<long> bytes = io::TryParseLong(toks[3]);
  if (!bytes || *bytes < 0 || *bytes > wire::kMaxPayloadBytes) {
    throw wire::WireError("bad reply byte count: " + toks[3]);
  }
  std::string payload;
  conn.ReadExact(static_cast<std::size_t>(*bytes), &payload);
  return payload;
}

}  // namespace

std::vector<std::string> Exchange(wire::Conn& conn, const std::string& request,
                                  const std::function<void()>& body) {
  const bool sent = conn.WriteAll("hcrf 1 " + request + "\n");
  if (sent && body) body();
  std::string line;
  bool got = false;
  try {
    got = conn.ReadLine(&line);
  } catch (const wire::WireError&) {
    if (sent) throw;  // a reply was due and arrived broken
  }
  if (!got) {
    if (!sent) {
      throw std::runtime_error("submit: connection lost sending '" + request +
                               "'");
    }
    throw wire::WireError("connection closed before a reply");
  }
  std::vector<std::string> toks = wire::SplitTokens(line);
  if (toks.size() < 3 || toks[0] != "hcrf" || toks[1] != "1") {
    throw wire::WireError("bad reply line: " + line);
  }
  if (toks[2] == "error") {
    const std::optional<long> bytes =
        toks.size() == 4 ? io::TryParseLong(toks[3]) : std::nullopt;
    if (!bytes || *bytes < 0 || *bytes > wire::kMaxPayloadBytes) {
      throw wire::WireError("bad error reply byte count");
    }
    std::string message;
    conn.ReadExact(static_cast<std::size_t>(*bytes), &message);
    throw std::runtime_error("server error: " + message);
  }
  return toks;
}

Client::Client(std::string socket_path, int read_timeout_ms)
    : socket_path_(std::move(socket_path)),
      read_timeout_ms_(read_timeout_ms) {}

int Client::Connect() const {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("submit: socket path too long: " + socket_path_);
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) FailErrno("submit: socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    FailErrno("submit: connect " + socket_path_);
  }
  if (read_timeout_ms_ > 0) {
    timeval tv{};
    tv.tv_sec = read_timeout_ms_ / 1000;
    tv.tv_usec = (read_timeout_ms_ % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  return fd;
}

bool Client::Ping() {
  wire::Conn conn(Connect());
  const std::vector<std::string> toks = Exchange(conn, "ping");
  if (toks[2] == "busy") return false;
  if (toks[2] != "ok") throw wire::WireError("unexpected ping reply");
  return true;
}

SubmitReply Client::Submit(const std::vector<BatchRequest>& requests) {
  return SubmitVerb("submit", requests);
}

SubmitReply Client::SubmitDelta(const std::vector<BatchRequest>& requests) {
  return SubmitVerb("delta", requests);
}

SubmitReply Client::SubmitVerb(const std::string& verb,
                               const std::vector<BatchRequest>& requests) {
  if (static_cast<long>(requests.size()) > wire::kMaxBatchRequests) {
    throw wire::WireError("batch exceeds the protocol request cap");
  }
  wire::Conn conn(Connect());
  const std::vector<std::string> toks =
      Exchange(conn, verb + " " + std::to_string(requests.size()), [&] {
        for (const BatchRequest& req : requests) {
          if (verb == "delta") {
            wire::WriteDeltaRequest(conn, req);
          } else {
            wire::WriteRequest(conn, req);
          }
        }
      });

  SubmitReply reply;
  if (toks[2] == "busy") {
    reply.busy = true;
    return reply;
  }
  if (toks[2] != "results" || toks.size() != 4) {
    throw wire::WireError("unexpected submit reply verb: " + toks[2]);
  }
  const std::optional<long> n = io::TryParseLong(toks[3]);
  if (!n || *n < 0 || *n > wire::kMaxBatchRequests) {
    throw wire::WireError("bad results count: " + toks[3]);
  }
  reply.items.reserve(static_cast<std::size_t>(*n));
  for (long i = 0; i < *n; ++i) {
    reply.items.push_back(wire::ReadItem(conn));
  }
  std::string end_line;
  if (!conn.ReadLine(&end_line) || end_line != "end") {
    throw wire::WireError("missing 'end' after results");
  }
  return reply;
}

std::string Client::Stats() { return Query("stats"); }

std::string Client::CacheStats() { return Query("cache-stats"); }

std::string Client::Query(const std::string& verb) {
  wire::Conn conn(Connect());
  const std::vector<std::string> toks = Exchange(conn, verb);
  if (toks[2] == "busy") {
    throw std::runtime_error("server busy; " + verb + " unavailable");
  }
  if (toks[2] != verb) {
    throw wire::WireError("unexpected " + verb + " reply verb: " + toks[2]);
  }
  return ReadReplyPayload(conn, toks);
}

}  // namespace hcrf::service
