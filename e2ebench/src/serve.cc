// serve_mixed: an in-process DiscoveryServer on a unix socket, driven
// open-loop by one generator thread over at most one connection per
// hardware thread. Requests go out on a schedule fixed before the run,
// through the public frame codec (net/protocol + shard::FrameDecoder), and
// are never retried when shed.
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/box.h"
#include "core/dataset_source.h"
#include "core/quality.h"
#include "engine/discovery_engine.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "shard/source_spec.h"
#include "shard/wire.h"
#include "spans.h"
#include "util/rng.h"
#include "workloads.h"

namespace e2e {
namespace {

using reds::Box;
using reds::DeriveSeed;
namespace net = reds::net;
namespace shard = reds::shard;

// setup_s is the median of kTimedSetups set-ups made after the measured
// pass of an untraced run, in a warmed process, as on the paper workloads.
// The set-up that serves the pass is printed on its own as setup_first_s.
constexpr int kTimedSetups = 3;

// The offered-rate ladder in requests per second -- below, near and above
// the capacity of a 4-core x86 box for this mix -- and the share of the
// run's seconds each step gets. Identical on every commit.
constexpr std::array<double, 3> kLadderRps = {20.0, 35.0, 80.0};
constexpr std::array<double, 3> kLadderShare = {0.4, 0.3, 0.3};
constexpr size_t kNominal = 0;  // latency_* metrics are read at this step
// Rounds over the ladder per run (see MakeSchedule).
constexpr int kRounds = 4;
// The p99 limit a ladder step must meet (shed / failed requests miss it).
constexpr double kLimitMs = 1000.0;
// A run whose generator sent its p99 request later than this is invalid.
constexpr double kMaxLateMs = 50.0;
// Answers still missing this long after the last due time count as lost.
constexpr double kDrainSeconds = 60.0;

// Request shapes: synthetic planted-box data, REDS + PRIM with a GBT
// metamodel over L relabeled points.
constexpr int kRows = 2000;
constexpr int kDims = 8;
constexpr int kLPrim = 20000;
constexpr int kBlockRows = 8192;  // == EngineConfig::stream_block_rows
constexpr int kBurstSize = 2;
constexpr int kTestRows = 5000;

enum Category { kReplay, kPeel, kRelabel, kCold, kBurst, kNumCategories };
const char* const kCategoryNames[kNumCategories] = {"replay", "peel",
                                                    "relabel", "cold", "burst"};
// Slots per 36-slot cycle; a burst slot carries kBurstSize requests, so a
// cycle is 40 requests, 8 of each category. The shares follow the repo's
// bench_net_load mix -- 3/5 warm, 1/5 cold, 1/5 coalescible bursts -- with
// its warm share split evenly over the three warm tiers (replay, peel,
// relabel). They are not taken from measured traffic.
constexpr int kCycleSlots[kNumCategories] = {8, 8, 8, 8, 4};

constexpr int kReplayBases = 4;
// One peel base, touched every 4-5 slots (see MakeCycle): at most four
// unique relabel streams enter the engine's default 8-entry relabel-stream
// LRU between two touches, so the base stays resident at the nominal rate.
constexpr int kPeelBases = 1;
constexpr int kRelabelBases = 16;
constexpr int kBurstBases = 4;

shard::SourceSpec Spec(uint64_t data_seed, int rows = kRows) {
  shard::SourceSpec spec;
  spec.kind = shard::SourceSpec::Kind::kSynthetic;
  spec.block_rows = kBlockRows;
  spec.rows = rows;
  spec.dims = kDims;
  spec.distinct = 48;
  spec.seed = data_seed;
  return spec;
}

net::SubmitRequest BaseRequest(uint64_t data_seed, net::DataMode mode,
                               uint64_t options_seed) {
  net::SubmitRequest msg;
  msg.method = "RPx";
  msg.data_mode = mode;
  msg.source = Spec(data_seed);
  msg.alpha = 0.05;
  msg.min_points = 20;
  msg.l_prim = kLPrim;
  msg.options_seed = options_seed;
  msg.tune_metamodel = false;
  msg.want_boxes = true;
  return msg;
}

net::DataMode ModeOf(int i) {
  return i % 2 == 0 ? net::DataMode::kEager : net::DataMode::kStreamedSource;
}

/// The fixed inputs every request is derived from.
struct Bases {
  std::vector<net::SubmitRequest> replay, peel, relabel, burst;
};

Bases MakeBases(uint64_t seed) {
  Bases b;
  for (int i = 0; i < kReplayBases; ++i) {
    b.replay.push_back(
        BaseRequest(DeriveSeed(seed, 0x4e9ULL + i), ModeOf(i), 7));
  }
  for (int i = 0; i < kPeelBases; ++i) {
    b.peel.push_back(BaseRequest(DeriveSeed(seed, 0x9ee1ULL + i),
                                 net::DataMode::kEager, 11));
  }
  for (int i = 0; i < kRelabelBases; ++i) {
    b.relabel.push_back(BaseRequest(DeriveSeed(seed, 0x7e1aULL + i),
                                    net::DataMode::kEager, 13));
  }
  for (int i = 0; i < kBurstBases; ++i) {
    b.burst.push_back(BaseRequest(DeriveSeed(seed, 0xb0b5ULL + i),
                                  net::DataMode::kEager, 17));
  }
  return b;
}

struct Planned {
  int category = 0;
  int segment = 0;  // ladder step
  int window = 0;   // schedule window
  int replay_base = -1;
  int64_t due_offset_ns = 0;  // from the segment's start
  net::SubmitRequest msg;
};

/// One cycle of categories, consumed from the back: the non-peel slots in
/// a seeded order, with the peel slots spread evenly between them.
std::vector<int> MakeCycle(reds::Rng* rng) {
  std::vector<int> others;
  for (int c = 0; c < kNumCategories; ++c) {
    if (c == kPeel) continue;
    for (int k = 0; k < kCycleSlots[c]; ++k) others.push_back(c);
  }
  for (size_t i = others.size(); i > 1; --i) {
    std::swap(others[i - 1], others[rng->UniformInt(i)]);
  }
  const int slots = static_cast<int>(others.size()) + kCycleSlots[kPeel];
  std::vector<int> cycle;
  int next_peel = 0;
  for (int pos = 0; pos < slots; ++pos) {
    if (next_peel < kCycleSlots[kPeel] &&
        pos == next_peel * slots / kCycleSlots[kPeel]) {
      cycle.push_back(kPeel);
      ++next_peel;
    } else {
      cycle.push_back(others[static_cast<size_t>(pos - next_peel)]);
    }
  }
  return cycle;
}

/// The whole schedule of one pass: kRounds rounds, each visiting every
/// ladder step for its share of a round, so each step's samples spread
/// over the whole run instead of one stretch of it. Within a window,
/// requests are rate-spaced slots in a seeded category order. `salt` keeps
/// every unique request of a second pass distinct from the first's.
std::vector<std::vector<Planned>> MakeSchedule(const Bases& bases,
                                               uint64_t seed, double seconds,
                                               uint64_t salt) {
  std::vector<std::vector<Planned>> windows;
  uint64_t unique = salt * 1000003ULL;
  reds::Rng rng(DeriveSeed(seed, 0x5c4edULL + salt));
  std::vector<int> cycle;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t s = 0; s < kLadderRps.size(); ++s) {
      const double rate = kLadderRps[s];
      const int64_t target = std::max<int64_t>(
          1, std::llround(rate * seconds * kLadderShare[s] / kRounds));
      std::vector<Planned> out;
      double t_s = 0.0;
      while (static_cast<int64_t>(out.size()) < target) {
        if (cycle.empty()) cycle = MakeCycle(&rng);
        const int category = cycle.back();
        cycle.pop_back();
        ++unique;
        Planned p;
        p.category = category;
        p.segment = static_cast<int>(s);
        p.window = static_cast<int>(windows.size());
        p.due_offset_ns = std::llround(t_s * 1e9);
        int count = 1;
        switch (category) {
          case kReplay:
            p.replay_base = static_cast<int>(unique % kReplayBases);
            p.msg = bases.replay[static_cast<size_t>(p.replay_base)];
            break;
          case kPeel:
            // Same data and seed as a warmed base, unique alpha: misses the
            // result cache, hits the relabel-stream cache.
            p.msg = bases.peel[unique % kPeelBases];
            p.msg.alpha = 0.05 + 1e-9 * static_cast<double>(unique);
            break;
          case kRelabel:
            p.msg = bases.relabel[unique % kRelabelBases];
            p.msg.options_seed = DeriveSeed(seed, 0x5eedULL + unique);
            break;
          case kCold:
            p.msg = BaseRequest(DeriveSeed(seed, 0xc01d0000ULL + unique),
                                net::DataMode::kStreamedSource, 19);
            break;
          case kBurst:
            p.msg = bases.burst[unique % kBurstBases];
            p.msg.options_seed = DeriveSeed(seed, 0xb0b50000ULL + unique);
            count = kBurstSize;
            break;
        }
        for (int k = 0; k < count; ++k) out.push_back(p);
        t_s += static_cast<double>(count) / rate;
      }
      windows.push_back(std::move(out));
    }
  }
  return windows;
}

// ---------------------------------------------------------------------------
// Connections.
// ---------------------------------------------------------------------------

struct Conn {
  int fd = -1;
  shard::FrameDecoder decoder;
  std::string out;  // encoded frames not yet written
  size_t out_pos = 0;
  bool want_write = false;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

int ConnectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  std::memcpy(sa.sun_path, path.c_str(), path.size());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect(" + path + ") failed");
  }
  return fd;
}

template <typename Msg>
std::string Payload(const Msg& msg) {
  reds::util::ByteWriter w;
  msg.SerializeTo(&w);
  return w.data();
}

std::unique_ptr<Conn> OpenConn(const std::string& path, int index) {
  auto conn = std::make_unique<Conn>();
  conn->fd = ConnectUnix(path);
  net::HelloRequest hello;
  hello.client_name = "e2e-loadgen-" + std::to_string(index);
  if (!shard::WriteFrame(conn->fd, shard::MsgType::kHello, Payload(hello)).ok() ||
      !shard::ExpectFrame(conn->fd, shard::MsgType::kHelloAck).ok()) {
    throw std::runtime_error("handshake failed");
  }
  const int flags = ::fcntl(conn->fd, F_GETFL, 0);
  ::fcntl(conn->fd, F_SETFL, flags | O_NONBLOCK);
  return conn;
}

/// Writes what the socket accepts; false when the peer is gone.
bool Flush(Conn* c) {
  while (c->out_pos < c->out.size()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_pos,
                             c->out.size() - c->out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_pos += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else {
      return false;
    }
  }
  c->out.clear();
  c->out_pos = 0;
  return true;
}

// ---------------------------------------------------------------------------
// Server state (one set-up).
// ---------------------------------------------------------------------------

struct ServeState {
  std::unique_ptr<reds::engine::DiscoveryEngine> engine;
  std::unique_ptr<net::DiscoveryServer> server;
  std::string socket_path;
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<Box> replay_boxes;  // last box first computed per replay base

  ServeState() = default;
  ServeState(const ServeState&) = delete;
  ServeState& operator=(const ServeState&) = delete;
  ~ServeState() {
    conns.clear();
    if (server) server->Stop();
    server.reset();
    if (engine) engine->Shutdown();
    if (!socket_path.empty()) ::unlink(socket_path.c_str());
  }
};

/// Submits `reqs` over one blocking client, `window` at a time (below the
/// server's queue-depth cap), and waits for every answer.
std::vector<net::RequestResult> RunBlocking(
    const std::string& address, std::vector<net::SubmitRequest> reqs,
    size_t window) {
  net::NetClient client;
  if (!client.Connect(address).ok() || !client.Hello("e2e-setup").ok()) {
    throw std::runtime_error("set-up client cannot reach the server");
  }
  std::vector<net::RequestResult> results;
  for (size_t first = 0; first < reqs.size(); first += window) {
    const size_t last = std::min(reqs.size(), first + window);
    for (size_t i = first; i < last; ++i) {
      reqs[i].request_id = i + 1;
      auto admitted = client.Submit(reqs[i]);
      if (!admitted.ok() ||
          admitted->kind != net::SubmitOutcome::Kind::kAdmitted) {
        throw std::runtime_error("set-up request was not admitted");
      }
    }
    for (size_t i = first; i < last; ++i) {
      auto r = client.WaitResult(i + 1);
      if (!r.ok() || r->done.failed) {
        throw std::runtime_error("set-up request failed");
      }
      results.push_back(std::move(*r));
    }
  }
  return results;
}

std::unique_ptr<ServeState> SetUp(const Bases& bases, int threads,
                                  const std::string& dir, int index) {
  auto state = std::make_unique<ServeState>();
  reds::engine::EngineConfig ec;
  ec.threads = threads;
  ec.enable_persistent_cache = false;
  state->engine = std::make_unique<reds::engine::DiscoveryEngine>(ec);
  net::ServerConfig sc;
  state->socket_path = dir + "/serve-" + std::to_string(::getpid()) + "-" +
                       std::to_string(index) + ".sock";
  sc.address = "unix:" + state->socket_path;
  sc.max_queue_depth = 2 * threads;
  state->server =
      std::make_unique<net::DiscoveryServer>(state->engine.get(), sc);
  if (!state->server->Start().ok()) {
    throw std::runtime_error("server failed to start on " + sc.address);
  }
  for (int i = 0; i < threads; ++i) {
    state->conns.push_back(OpenConn(state->socket_path, i));
  }
  // Pre-warm: replay bases fill the result cache, relabel and burst bases
  // the metamodel cache, and the peel base -- last, so the others' streams
  // do not evict it -- the relabel-stream cache.
  std::vector<net::SubmitRequest> warm = bases.replay;
  warm.insert(warm.end(), bases.relabel.begin(), bases.relabel.end());
  warm.insert(warm.end(), bases.burst.begin(), bases.burst.end());
  warm.insert(warm.end(), bases.peel.begin(), bases.peel.end());
  const std::vector<net::RequestResult> results =
      RunBlocking(state->server->address(), warm,
                  static_cast<size_t>(threads));
  for (int i = 0; i < kReplayBases; ++i) {
    state->replay_boxes.push_back(results[static_cast<size_t>(i)].done.last_box);
  }
  return state;
}

// ---------------------------------------------------------------------------
// The generator.
// ---------------------------------------------------------------------------

struct Sent {
  Planned plan;
  RequestRecord rec;
  Box last_box;
  // Trajectory boxes are kept only where quality is evaluated (nominal
  // step, non-replay), so the client's memory stays out of peak_rss_mb.
  bool keep_boxes = false;
  bool admitted = false;  // a SubmitAck arrived
  std::vector<Box> boxes;
  uint32_t boxes_received = 0;
  uint32_t trajectory_len = 0;
  bool box_stream_ok = true;
};

struct PassResult {
  std::vector<Sent> requests;  // in schedule order, all segments
  std::vector<Window> windows;  // start, last due
  std::vector<std::string> errors;
  double wall_s = 0.0;
};

/// Closes a file descriptor when it goes out of scope.
struct ScopedFd {
  int fd = -1;
  explicit ScopedFd(int f) : fd(f) {}
  ~ScopedFd() {
    if (fd >= 0) ::close(fd);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
};

PassResult RunPass(ServeState* state,
                   const std::vector<std::vector<Planned>>& schedule) {
  PassResult pass;
  const ScopedFd epoll(::epoll_create1(EPOLL_CLOEXEC));
  const int epfd = epoll.fd;
  if (epfd < 0) throw std::runtime_error("epoll_create1 failed");
  for (size_t i = 0; i < state->conns.size(); ++i) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(epfd, EPOLL_CTL_ADD, state->conns[i]->fd, &ev);
  }
  for (const auto& seg : schedule) {
    for (const Planned& p : seg) {
      Sent s;
      s.plan = p;
      s.rec.category = p.category;
      s.rec.segment = p.segment;
      s.rec.window = p.window;
      s.keep_boxes = p.segment == static_cast<int>(kNominal) &&
                     p.category != kReplay;
      pass.requests.push_back(std::move(s));
    }
  }
  // Request ids are indexes + 1 into pass.requests, unique across
  // connections.
  auto by_id = [&](uint64_t id) -> Sent* {
    if (id == 0 || id > pass.requests.size()) return nullptr;
    return &pass.requests[id - 1];
  };
  int64_t outstanding = 0;
  size_t next_conn = 0;
  const auto answer = [&](Sent* s, Reply reply, int64_t t) {
    if (s->rec.reply != Reply::kPending) return;
    s->rec.reply = reply;
    s->rec.done_ns = t;
    if (s->rec.ack_ns < 0) s->rec.ack_ns = t;
    --outstanding;
  };
  const auto set_write = [&](size_t i, bool want) {
    Conn* c = state->conns[i].get();
    if (c->want_write == want) return;
    c->want_write = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = i;
    ::epoll_ctl(epfd, EPOLL_CTL_MOD, c->fd, &ev);
  };
  const auto on_frame = [&](shard::Frame& frame, int64_t t) {
    switch (frame.type) {
      case shard::MsgType::kSubmitAck: {
        auto ack = net::SubmitAck::Parse(frame.payload);
        Sent* s = ack.ok() ? by_id(ack->request_id) : nullptr;
        if (s != nullptr) {
          s->rec.ack_ns = t;
          s->admitted = true;
        }
        break;
      }
      case shard::MsgType::kShed: {
        auto shed = net::ShedReply::Parse(frame.payload);
        Sent* s = shed.ok() ? by_id(shed->request_id) : nullptr;
        if (s != nullptr) answer(s, Reply::kShed, t);
        break;
      }
      case shard::MsgType::kResultBoxes: {
        auto chunk = net::ResultBoxes::Parse(frame.payload);
        Sent* s = chunk.ok() ? by_id(chunk->request_id) : nullptr;
        if (s == nullptr) break;
        if (chunk->first_index != s->boxes_received) s->box_stream_ok = false;
        s->boxes_received += static_cast<uint32_t>(chunk->boxes.size());
        if (s->keep_boxes) {
          s->boxes.insert(s->boxes.end(), chunk->boxes.begin(),
                          chunk->boxes.end());
        }
        break;
      }
      case shard::MsgType::kResultDone: {
        auto done = net::ResultDone::Parse(frame.payload);
        Sent* s = done.ok() ? by_id(done->request_id) : nullptr;
        if (s == nullptr) break;
        s->rec.server_ns = done->server_latency_ns;
        s->rec.flags = done->flags;
        s->last_box = done->last_box;
        s->trajectory_len = done->trajectory_len;
        answer(s, done->failed ? Reply::kFailed : Reply::kDone, t);
        break;
      }
      case shard::MsgType::kError: {
        auto err = net::ErrorReply::Parse(frame.payload);
        Sent* s = err.ok() ? by_id(err->request_id) : nullptr;
        if (s != nullptr) {
          answer(s, Reply::kFailed, t);
        } else {
          pass.errors.push_back("server error frame: " +
                                (err.ok() ? err->message : "unparseable"));
        }
        break;
      }
      default:
        pass.errors.push_back("unexpected frame type " +
                              std::to_string(static_cast<int>(frame.type)));
    }
  };

  size_t cursor = 0;
  const int64_t pass_start = NowNs();
  for (const std::vector<Planned>& window : schedule) {
    const size_t window_end = cursor + window.size();
    const int64_t start = NowNs() + 2'000'000;  // 2 ms lead
    const int64_t last_due =
        start + (window.empty() ? 0 : window.back().due_offset_ns);
    pass.windows.push_back(Window{start, last_due});
    for (size_t i = cursor; i < window_end; ++i) {
      pass.requests[i].rec.due_ns = start + pass.requests[i].plan.due_offset_ns;
    }
    const int64_t drain_deadline =
        last_due + static_cast<int64_t>(kDrainSeconds * 1e9);
    while (cursor < window_end || outstanding > 0) {
      int64_t now = NowNs();
      while (cursor < window_end &&
             pass.requests[cursor].rec.due_ns <= now) {
        Sent& s = pass.requests[cursor];
        s.plan.msg.request_id = cursor + 1;
        const size_t ci = next_conn++ % state->conns.size();
        Conn* c = state->conns[ci].get();
        c->out += shard::EncodeFrame(shard::MsgType::kSubmit,
                                     Payload(s.plan.msg));
        if (!Flush(c)) {
          pass.errors.push_back("connection lost while sending");
          return pass;
        }
        set_write(ci, !c->out.empty());
        s.rec.sent_ns = NowNs();
        ++outstanding;
        ++cursor;
        now = NowNs();
      }
      if (cursor >= window_end && now > drain_deadline) break;
      timespec timeout{};
      if (cursor < window_end) {
        const int64_t wait = std::max<int64_t>(
            0, pass.requests[cursor].rec.due_ns - NowNs());
        timeout.tv_sec = wait / 1'000'000'000;
        timeout.tv_nsec = wait % 1'000'000'000;
      } else {
        timeout.tv_nsec = 50'000'000;
      }
      epoll_event events[16];
      const int n = ::epoll_pwait2(epfd, events, 16, &timeout, nullptr);
      if (n < 0 && errno != EINTR) {
        pass.errors.push_back("epoll_pwait2 failed");
        break;
      }
      for (int e = 0; e < n; ++e) {
        const size_t ci = events[e].data.u64;
        Conn* c = state->conns[ci].get();
        if (events[e].events & EPOLLOUT) {
          if (!Flush(c)) pass.errors.push_back("connection lost");
          set_write(ci, !c->out.empty());
        }
        if (events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
          char buf[65536];
          while (true) {
            const ssize_t got = ::recv(c->fd, buf, sizeof(buf), 0);
            if (got > 0) {
              if (!c->decoder.Feed(buf, static_cast<size_t>(got)).ok()) {
                pass.errors.push_back("undecodable reply stream");
                break;
              }
              continue;
            }
            if (got < 0 && errno == EINTR) continue;
            if (got == 0) pass.errors.push_back("server closed a connection");
            break;  // EAGAIN, EOF or error
          }
          const int64_t t = NowNs();
          shard::Frame frame;
          while (c->decoder.Next(&frame)) on_frame(frame, t);
        }
      }
      if (!pass.errors.empty()) break;
    }
    if (!pass.errors.empty()) break;
  }
  pass.wall_s = static_cast<double>(NowNs() - pass_start) / 1e9;
  return pass;
}

// ---------------------------------------------------------------------------
// Checks and reports.
// ---------------------------------------------------------------------------

std::vector<RequestRecord> Records(const PassResult& pass, int segment,
                                   int category = -1) {
  std::vector<RequestRecord> out;
  for (const Sent& s : pass.requests) {
    if (s.rec.segment != segment) continue;
    if (category >= 0 && s.rec.category != category) continue;
    out.push_back(s.rec);
  }
  return out;
}

struct Scrape {
  double admitted = 0, shed = 0, cache_hits = 0, exempt = 0;
};

Scrape ReadScrape(const std::string& address) {
  net::NetClient client;
  Scrape s;
  if (!client.Connect(address).ok() || !client.Hello("e2e-scrape").ok()) {
    throw std::runtime_error("scrape client cannot reach the server");
  }
  auto body = client.Scrape(net::ScrapeFormat::kJson);
  if (!body.ok()) throw std::runtime_error("scrape failed");
  JsonNumber(*body, "net.submits_admitted", &s.admitted);
  JsonNumber(*body, "net.submits_shed", &s.shed);
  JsonNumber(*body, "net.result_cache_hits", &s.cache_hits);
  JsonNumber(*body, "net.submits_coalesced_exempt", &s.exempt);
  return s;
}

/// Accounting and reply checks shared by the untraced and traced passes.
void CheckPass(const PassResult& pass, const ServeState& state,
               const Scrape& before, const Scrape& after, Outcome* out) {
  for (const std::string& e : pass.errors) out->Check(false, e);
  int64_t admitted = 0;
  for (const Sent& s : pass.requests) {
    ++out->attempted;
    admitted += s.admitted;
    const std::string label = std::string(kCategoryNames[s.rec.category]) +
                              " request " +
                              std::to_string(s.plan.msg.request_id);
    if (s.rec.reply == Reply::kFailed || s.rec.reply == Reply::kPending) {
      ++out->failed;
      out->Check(false, label + (s.rec.reply == Reply::kPending
                                     ? " never answered"
                                     : " failed"));
      continue;
    }
    if (s.rec.reply != Reply::kDone) continue;
    out->Check(s.box_stream_ok && s.boxes_received == s.trajectory_len &&
                   s.trajectory_len > 0,
               label + " trajectory stream incomplete or empty");
    if (s.rec.category == kReplay) {
      out->Check(s.last_box ==
                     state.replay_boxes[static_cast<size_t>(s.plan.replay_base)],
                 label + " replayed a different box than first computed");
    }
    if (s.rec.category == kPeel || s.rec.category == kRelabel) {
      out->Check((s.rec.flags & net::kAdmitResultCached) == 0,
                 label + " was served from the result cache");
    }
  }
  // attempted = done + failed + shed, per segment and category.
  for (size_t seg = 0; seg < kLadderRps.size(); ++seg) {
    for (int c = 0; c < kNumCategories; ++c) {
      const std::vector<RequestRecord> recs =
          Records(pass, static_cast<int>(seg), c);
      int64_t done = 0, failed = 0, shed = 0;
      for (const RequestRecord& r : recs) {
        done += r.reply == Reply::kDone;
        failed += r.reply == Reply::kFailed;
        shed += r.reply == Reply::kShed;
      }
      out->Check(static_cast<int64_t>(recs.size()) == done + failed + shed,
                 std::string("accounting mismatch in ") + kCategoryNames[c] +
                     " at step " + std::to_string(seg));
    }
  }
  const double server_admitted = after.admitted - before.admitted;
  out->Check(server_admitted == static_cast<double>(admitted),
             "server admitted " + std::to_string(server_admitted) +
                 " requests, client saw " + std::to_string(admitted) +
                 " admissions");
}

/// Generator lateness; a run whose generator fell behind is invalid.
double CheckLateness(const PassResult& pass, Outcome* out) {
  std::vector<double> late;
  for (const Sent& s : pass.requests) late.push_back(LatenessMs(s.rec));
  const Percentile p = TailPercentile(late, 0.99);
  out->Check(p.value <= kMaxLateMs,
             "generator fell behind: late p" + std::to_string(100 * p.q) +
                 " = " + std::to_string(p.value) + " ms");
  return p.value;
}

std::vector<SegmentStats> Summarize(const PassResult& pass) {
  std::vector<SegmentStats> stats;
  for (size_t step = 0; step < kLadderRps.size(); ++step) {
    stats.push_back(SummarizeSegment(
        Records(pass, static_cast<int>(step)), kLimitMs, pass.windows,
        static_cast<int64_t>(2 * HardwareThreads())));
  }
  return stats;
}

/// PR AUC and precision of the answers at the nominal step, on an
/// independent test sample of the same planted-box distribution: averaged
/// per training set first, so the few warm bases do not outweigh the many
/// cold sets.
void Quality(const PassResult& pass, uint64_t seed, double* pr_auc,
             double* precision, size_t* evaluated) {
  auto source = shard::MakeSource(Spec(DeriveSeed(seed, 0x7e57ULL), kTestRows),
                                  1, 0);
  auto test = reds::ReadAll(source->get(), kBlockRows);
  if (!test.ok()) throw std::runtime_error("cannot build the serve test set");
  std::map<uint64_t, std::pair<std::vector<double>, std::vector<double>>> sets;
  *evaluated = 0;
  for (const Sent& s : pass.requests) {
    if (!s.keep_boxes || s.rec.reply != Reply::kDone) continue;
    auto& [aucs, precs] = sets[s.plan.msg.source.seed];
    aucs.push_back(100.0 * reds::PrAucOnData(s.boxes, *test));
    precs.push_back(100.0 *
                    reds::Precision(reds::ComputeBoxStats(*test, s.last_box)));
    ++*evaluated;
  }
  std::vector<double> aucs, precs;
  for (const auto& [data_seed, v] : sets) {
    aucs.push_back(Mean(v.first));
    precs.push_back(Mean(v.second));
  }
  *pr_auc = Mean(aucs);
  *precision = Mean(precs);
}

void ReportEndToEnd(const PassResult& pass, double setup_s, uint64_t seed,
                    Outcome* out) {
  const std::vector<SegmentStats> stats = Summarize(pass);
  int64_t done = 0, shed = 0, failed = 0, attempted = 0;
  for (size_t seg = 0; seg < stats.size(); ++seg) {
    const SegmentStats& s = stats[seg];
    done += s.done;
    shed += s.shed;
    failed += s.failed;
    attempted += s.attempted;
    out->AddExtra("step" + std::to_string(seg) + ".offered_rps", kLadderRps[seg],
                  "req/s",
                  "p50=" + std::to_string(s.p50.value) + " ms p99=" +
                      std::to_string(s.p99.value) + " ms (" +
                      PercentileNote(s.p99) + ") goodput=" +
                      std::to_string(s.goodput_rps) + " shed=" +
                      std::to_string(s.shed) + " meets_limit=" +
                      (s.meets_limit ? "yes" : "no"));
  }
  const SegmentStats& nominal = stats[kNominal];
  double max_rate = 0.0;
  std::string max_note = "no step met the limit";
  for (size_t seg = 0; seg < stats.size(); ++seg) {
    if (!stats[seg].meets_limit) continue;
    max_rate = stats[seg].goodput_rps;
    max_note = "goodput at the " + std::to_string(kLadderRps[seg]) +
               " req/s step";
  }
  double pr_auc = 0.0, precision = 0.0;
  size_t evaluated = 0;
  Quality(pass, seed, &pr_auc, &precision, &evaluated);
  const double total_s = pass.wall_s;
  out->Add("setup_s", setup_s, "s",
           "median of " + std::to_string(kTimedSetups) +
               " set-ups after the measured pass");
  out->Add("jobs_per_s", total_s > 0 ? static_cast<double>(done) / total_s : 0.0,
           "jobs/s", "n=" + std::to_string(done) + " answers over the ladder");
  out->Add("latency_p50_ms", nominal.p50.value, "ms",
           PercentileNote(nominal.p50) + " at " +
               std::to_string(kLadderRps[kNominal]) + " req/s");
  out->Add("latency_p90_ms", nominal.p90.value, "ms",
           PercentileNote(nominal.p90));
  out->Add("latency_p99_ms", nominal.p99.value, "ms",
           PercentileNote(nominal.p99));
  out->Add("max_rate_rps", max_rate, "req/s", max_note);
  out->Add("goodput_rps", stats.back().goodput_rps, "req/s",
           "within " + std::to_string(kLimitMs) + " ms at " +
               std::to_string(kLadderRps.back()) + " req/s");
  out->Add("pr_auc", pr_auc, "%",
           "per-training-set mean over " + std::to_string(evaluated) +
               " answers at the nominal step");
  out->Add("precision", precision, "%",
           "per-training-set mean over " + std::to_string(evaluated) +
               " answers");
  out->Add("peak_rss_mb", PeakRssMb(), "MB");
  out->AddExtra("shed_frac",
                attempted > 0 ? static_cast<double>(shed) / attempted : 0.0,
                "share", std::to_string(shed) + "/" + std::to_string(attempted));
  out->AddExtra("failed_frac",
                attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
                "share",
                std::to_string(failed) + "/" + std::to_string(attempted));
}

void ReportLayers(const PassResult& untraced, const PassResult& traced,
                  const SpanRecorder& recorder,
                  const reds::obs::RegistrySnapshot& reg, const Scrape& before,
                  const Scrape& after, double late_p99, Outcome* out) {
  // Client-side spans: submit -> admit, admit -> result.
  std::vector<double> admit_ms, server_ms, wire_ms;
  for (const SpanRecord& s : recorder.spans()) {
    if (s.name == "net.admit") {
      admit_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  for (const Sent& s : traced.requests) {
    if (s.rec.reply != Reply::kDone) continue;
    const double server = static_cast<double>(s.rec.server_ns) / 1e6;
    server_ms.push_back(server);
    wire_ms.push_back(static_cast<double>(s.rec.done_ns - s.rec.sent_ns) / 1e6 -
                      server);
  }
  const Percentile admit50 = TailPercentile(admit_ms, 0.5);
  const Percentile admit99 = TailPercentile(admit_ms, 0.99);
  const Percentile server50 = TailPercentile(server_ms, 0.5);
  const Percentile server99 = TailPercentile(server_ms, 0.99);
  const Percentile wire50 = TailPercentile(wire_ms, 0.5);
  out->Add("net.admit_p50_ms", admit50.value, "ms", PercentileNote(admit50));
  out->Add("net.admit_p99_ms", admit99.value, "ms", PercentileNote(admit99));
  out->Add("net.server_p50_ms", server50.value, "ms", PercentileNote(server50));
  out->Add("net.server_p99_ms", server99.value, "ms", PercentileNote(server99));
  out->Add("net.wire_p50_ms", wire50.value, "ms",
           "client minus server, " + PercentileNote(wire50));
  const uint64_t hits = static_cast<uint64_t>(after.cache_hits - before.cache_hits);
  const uint64_t lookups = static_cast<uint64_t>(
      (after.admitted - before.admitted) + (after.shed - before.shed));
  out->Add("net.result_cache_hit_ratio",
           Ratio(static_cast<double>(hits), static_cast<double>(lookups)),
           "ratio", BaseNote(hits, lookups));
  out->Add("net.result_cache_hits", static_cast<double>(hits), "count");
  out->Add("net.result_cache_lookups", static_cast<double>(lookups), "count");
  out->Add("net.shed", after.shed - before.shed, "count");
  out->Add("net.coalesced_exempt", after.exempt - before.exempt, "count");

  // Per category at the nominal step: latency percentiles and the
  // category's share of the summed request latency.
  double total_ms = 0.0;
  std::array<std::vector<double>, kNumCategories> lat;
  for (const Sent& s : traced.requests) {
    if (s.rec.segment != static_cast<int>(kNominal) ||
        s.rec.reply != Reply::kDone) {
      continue;
    }
    const double ms = LatencyFromDueMs(s.rec);
    lat[static_cast<size_t>(s.rec.category)].push_back(ms);
    total_ms += ms;
  }
  for (int c = 0; c < kNumCategories; ++c) {
    const std::vector<double>& v = lat[static_cast<size_t>(c)];
    const Percentile p50 = TailPercentile(v, 0.5);
    const Percentile p99 = TailPercentile(v, 0.99);
    double sum = 0.0;
    for (double x : v) sum += x;
    const std::string base = std::string("serve.") + kCategoryNames[c];
    out->Add(base + ".p50_ms", p50.value, "ms", PercentileNote(p50));
    out->Add(base + ".p99_ms", p99.value, "ms", PercentileNote(p99));
    out->Add(base + ".share", Ratio(sum, total_ms), "ratio",
             "of summed latency at the nominal step");
  }
  out->Add("loadgen.late_p99_ms", late_p99, "ms");
  int64_t peel_answers = 0;
  for (const Sent& s : traced.requests) {
    peel_answers += s.rec.category == kPeel && s.rec.reply == Reply::kDone;
  }
  out->AddExtra("serve.peel.answers", static_cast<double>(peel_answers),
                "count",
                "engine.relabel_hits adds only burst followers that missed "
                "their leader's coalescing window");

  // Tracing overhead: traced vs untraced mean latency at the nominal step.
  // Both passes record the same timestamps and the spans are built from
  // them afterwards, so on this workload the figure is pass-to-pass noise.
  const auto nominal_mean = [](const PassResult& pass) {
    std::vector<double> v;
    for (const Sent& s : pass.requests) {
      if (s.rec.segment == static_cast<int>(kNominal) &&
          s.rec.reply == Reply::kDone) {
        v.push_back(LatencyFromDueMs(s.rec));
      }
    }
    return Mean(v);
  };
  const double base = nominal_mean(untraced);
  out->Add("trace.overhead_frac",
           base > 0 ? nominal_mean(traced) / base - 1.0 : 0.0, "ratio",
           "traced vs untraced mean latency at the nominal step");
  // The share of due-time latency no layer's own measurement covers: the
  // client's time outside the server's server_latency_ns (wire and both
  // event loops), plus the server's time outside the engine's pool wait and
  // job latency (decode, admission, result encoding). Generator lateness is
  // the loadgen's and is reported on its own.
  double due_total = 0.0, outside_server = 0.0, server_total = 0.0;
  for (const Sent& s : traced.requests) {
    if (s.rec.reply != Reply::kDone) continue;
    due_total += static_cast<double>(s.rec.done_ns - s.rec.due_ns);
    outside_server += static_cast<double>(s.rec.done_ns - s.rec.sent_ns) -
                      static_cast<double>(s.rec.server_ns);
    server_total += static_cast<double>(s.rec.server_ns);
  }
  const double engine_total =
      static_cast<double>(HistSum(reg, "engine.job.latency_ns") +
                          HistSum(reg, "engine.pool.task_wait_ns"));
  const double outside_engine = std::max(0.0, server_total - engine_total);
  out->AddExtra("trace.outside_server_frac", Ratio(outside_server, due_total),
                "ratio", "client time outside server_latency_ns");
  out->AddExtra("trace.outside_engine_frac", Ratio(outside_engine, due_total),
                "ratio", "server time outside engine wait + job latency");
  out->Add("trace.unattributed_frac",
           Ratio(outside_server + outside_engine, due_total), "ratio",
           "due-time latency outside the server and engine measurements");

  int64_t shed = 0, failed = 0;
  for (const Sent& s : traced.requests) {
    shed += s.rec.reply == Reply::kShed;
    failed += s.rec.reply == Reply::kFailed || s.rec.reply == Reply::kPending;
  }
  const double n = static_cast<double>(traced.requests.size());
  out->Add("run.shed_frac", n > 0 ? static_cast<double>(shed) / n : 0.0,
           "ratio", std::to_string(shed) + "/" + std::to_string(traced.requests.size()));
  out->Add("run.failed_frac", n > 0 ? static_cast<double>(failed) / n : 0.0,
           "ratio",
           std::to_string(failed) + "/" + std::to_string(traced.requests.size()));

  AddEngineLayerMetrics(reg, out);
}

}  // namespace

Outcome RunServeMixed(const Args& args) {
  Outcome out;
  const int threads = HardwareThreads();
  const Bases bases = MakeBases(args.seed);
  // The socket lives beside the span dumps, under a relative path: the
  // checkout may sit deeper than sun_path allows.
  const std::string& dir = args.out_dir;
  std::filesystem::create_directories(dir);

  const int64_t setup_start = NowNs();
  std::unique_ptr<ServeState> state = SetUp(bases, threads, dir, 0);
  const double first_setup_s =
      static_cast<double>(NowNs() - setup_start) / 1e9;

  const Scrape before = ReadScrape(state->server->address());
  const PassResult pass =
      RunPass(state.get(), MakeSchedule(bases, args.seed, args.seconds, 0));
  const Scrape after = ReadScrape(state->server->address());
  CheckPass(pass, *state, before, after, &out);
  const double late_p99 = CheckLateness(pass, &out);
  out.AddExtra("connections", static_cast<double>(state->conns.size()), "count");
  if (!args.trace) {
    std::vector<double> setup_times;
    for (int i = 1; i <= kTimedSetups; ++i) {
      state.reset();
      const int64_t t0 = NowNs();
      state = SetUp(bases, threads, dir, i);
      setup_times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    out.AddExtra("setup_first_s", first_setup_s, "s",
                 "the set-up that served the measured pass");
    ReportEndToEnd(pass, NearestRank(setup_times, 0.5).value, args.seed, &out);
    return out;
  }

  // Traced pass: the same ladder with fresh unique requests, recording a
  // submit->admit and an admit->result span per request.
  const auto reg_before = state->engine->metrics().TakeSnapshot();
  PassResult traced =
      RunPass(state.get(), MakeSchedule(bases, args.seed, args.seconds, 1));
  const auto reg = Delta(state->engine->metrics().TakeSnapshot(), reg_before);
  const Scrape after_traced = ReadScrape(state->server->address());
  CheckPass(traced, *state, after, after_traced, &out);
  const double traced_late = CheckLateness(traced, &out);
  SpanRecorder recorder;
  for (const Sent& s : traced.requests) {
    if (s.rec.sent_ns < 0) continue;
    const uint64_t id = s.plan.msg.request_id;
    const int64_t admit = s.rec.ack_ns >= 0 ? s.rec.ack_ns : s.rec.done_ns;
    const int64_t root = recorder.NextId();
    recorder.Add(SpanRecord{"net.admit", s.rec.sent_ns, admit,
                            recorder.NextId(), root, id});
    if (s.rec.reply == Reply::kDone || s.rec.reply == Reply::kFailed) {
      recorder.Add(SpanRecord{"net.result", admit, s.rec.done_ns,
                              recorder.NextId(), root, id});
    }
    recorder.Add(SpanRecord{std::string("request.") + kCategoryNames[s.rec.category],
                            s.rec.sent_ns, std::max(admit, s.rec.done_ns), root, 0,
                            id});
  }
  ReportLayers(pass, traced, recorder, reg, after, after_traced,
               std::max(late_p99, traced_late), &out);
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".spans.jsonl";
  out.Check(recorder.WriteJsonLines(path), "cannot write " + path);
  return out;
}

}  // namespace e2e
