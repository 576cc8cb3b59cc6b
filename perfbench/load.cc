// perfbench_load: the end-to-end half of the benchmark.
//
//   perfbench_load --workload NAME --seed N --seconds S --server PATH
//                  --workdir DIR
//
// Runs kServers server lifetimes one after another. Each launches
// streamrel-server with the workload's --init DDL, connects (at most three
// connections, three threads), subscribes, preloads history and sends a
// fixed warm-up (the set-up), then drives the workload on an open-loop
// schedule for its share of S seconds, timing every request from its due
// time. It reads the server's CPU and peak RSS from /proc and its own
// counters from SHOW STATS, and checks every answer against the oracle.
// Prints the pooled metrics as one JSON object (see report.h) on stdout.

#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "oracle.h"
#include "report.h"
#include "stats.h"
#include "workload.h"

extern char** environ;

namespace perfbench {
namespace {

using streamrel::Result;
using streamrel::Row;
using streamrel::Status;
namespace net = streamrel::net;

constexpr int64_t kRequestTimeoutUs = 10 * kSecond;
constexpr int64_t kDrainTimeoutUs = 10 * kSecond;
constexpr int kPings = 100;  // per server

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int64_t seconds = 10;
  std::string server;
  std::string workdir;
};

// --- /proc readers ----------------------------------------------------------

/// CPU time of a process so far, in µs: the scheduler's per-thread
/// runtime (ns resolution) summed over its threads, or else user + system
/// ticks from /proc/<pid>/stat.
double ProcessCpuMicros(pid_t pid) {
  const std::string proc = "/proc/" + std::to_string(pid);
  double ms = 0;
  bool found = false;
  if (DIR* dir = opendir((proc + "/task").c_str())) {
    while (dirent* e = readdir(dir)) {
      if (e->d_name[0] == '.') continue;
      std::ifstream in(proc + "/task/" + e->d_name + "/sched");
      std::string line;
      while (std::getline(in, line)) {
        if (line.rfind("se.sum_exec_runtime", 0) == 0) {
          ms += std::stod(line.substr(line.find(':') + 1));
          found = true;
        }
      }
    }
    closedir(dir);
  }
  if (found) return ms * 1000.0;
  std::ifstream in(proc + "/stat");
  std::string line;
  std::getline(in, line);
  const size_t paren = line.rfind(')');
  if (paren == std::string::npos) return 0;
  std::istringstream fields(line.substr(paren + 2));
  std::string f;
  double ticks = 0;
  for (int i = 0; i <= 12 && fields >> f; ++i) {
    if (i == 11 || i == 12) ticks += std::stod(f);
  }
  return ticks * kSecond / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Peak resident set size (VmHWM) of a process, in MiB.
double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

/// Host-wide steal time so far, in ms.
double StealMs() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  int64_t v[8] = {};
  in >> cpu;
  for (int64_t& x : v) in >> x;
  return static_cast<double>(v[7]) * 1000.0 /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

// --- the server process -----------------------------------------------------

/// A streamrel-server child. The destructor stops it (SIGTERM, then
/// SIGKILL after a grace period) and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  Status Start(const std::string& binary, const std::string& init_file) {
    int out[2];
    if (pipe(out) != 0) return Status::IoError("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addclose(&actions, out[1]);
    std::vector<std::string> args = {binary, "--port", "0", "--init",
                                     init_file};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(out[1]);
    if (rc != 0) {
      close(out[0]);
      pid_ = -1;
      return Status::IoError("cannot launch " + binary + ": " +
                             std::strerror(rc));
    }
    stdout_fd_ = out[0];
    // The server prints "streamrel-server listening on H:P" once serving.
    std::string text;
    const int64_t deadline = NowMicros() + kRequestTimeoutUs;
    while (text.find('\n') == std::string::npos) {
      pollfd pfd{stdout_fd_, POLLIN, 0};
      const int64_t left = deadline - NowMicros();
      if (left <= 0 || poll(&pfd, 1, static_cast<int>(left / 1000) + 1) <= 0) {
        return Status::Unavailable("server did not report its port");
      }
      char buf[256];
      const ssize_t n = read(stdout_fd_, buf, sizeof(buf));
      if (n <= 0) return Status::IoError("server exited during start-up");
      text.append(buf, static_cast<size_t>(n));
    }
    const size_t colon = text.rfind(':', text.find('\n'));
    if (text.find("listening on") == std::string::npos ||
        colon == std::string::npos) {
      return Status::IoError("unexpected server banner: " + text);
    }
    port_ = static_cast<uint16_t>(std::atoi(text.c_str() + colon + 1));
    return Status::OK();
  }

  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      const int64_t deadline = NowMicros() + 5 * kSecond;
      while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (NowMicros() > deadline) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) {
      close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

// --- the ingest connection --------------------------------------------------

/// A blocking frame connection for the ingest side: it sends INGEST_BATCH
/// frames encoded ahead of their due time, so the timed send is one write.
/// This connection never subscribes, so every frame read is a response.
class FrameConn {
 public:
  FrameConn() = default;
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;
  ~FrameConn() {
    if (fd_ >= 0) close(fd_);
  }

  Status Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return Status::IoError("socket failed");
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Status::Unavailable("connect failed");
    }
    return Status::OK();
  }

  uint64_t NextId() { return next_id_++; }

  Status SendBytes(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IoError("send failed");
      off += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  /// Reads until the response to `id` arrives or the deadline passes.
  Result<net::Frame> Await(uint64_t id, int64_t deadline_us) {
    for (;;) {
      net::Frame frame;
      std::string error;
      const net::DecodeStatus ds =
          net::TryDecodeFrame(buf_, &off_, &frame, &error);
      if (ds == net::DecodeStatus::kFrame) {
        if (off_ > (1u << 20)) {
          buf_.erase(0, off_);
          off_ = 0;
        }
        if (frame.request_id == id) return frame;
        continue;
      }
      if (ds == net::DecodeStatus::kCorrupt) {
        return Status::IoError("corrupt frame: " + error);
      }
      const int64_t left = deadline_us - NowMicros();
      pollfd pfd{fd_, POLLIN, 0};
      if (left <= 0 || poll(&pfd, 1, static_cast<int>(left / 1000) + 1) <= 0) {
        return Status::Unavailable("timed out waiting for response");
      }
      char tmp[64 * 1024];
      const ssize_t n = recv(fd_, tmp, sizeof(tmp), 0);
      if (n == 0) return Status::IoError("server closed the connection");
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        return Status::IoError("recv failed");
      }
      buf_.append(tmp, static_cast<size_t>(n));
    }
  }

  Result<net::Frame> Call(net::FrameType type, std::string body) {
    const uint64_t id = NextId();
    std::string bytes;
    net::EncodeFrame(net::Frame{type, id, std::move(body)}, &bytes);
    RETURN_IF_ERROR(SendBytes(bytes));
    return Await(id, NowMicros() + kRequestTimeoutUs);
  }

  Result<net::RowSet> Query(const std::string& sql) {
    ASSIGN_OR_RETURN(net::Frame f,
                     Call(net::FrameType::kQuery, net::EncodeQueryBody(sql)));
    if (f.type == net::FrameType::kError) return net::DecodeErrorBody(f.body);
    if (f.type != net::FrameType::kRowSet) {
      return Status::IoError("unexpected response to a query");
    }
    return net::DecodeRowSetBody(f.body);
  }

 private:
  int fd_ = -1;
  uint64_t next_id_ = 1;
  std::string buf_;
  size_t off_ = 0;
};

// --- subscriber connections -------------------------------------------------

/// One dashboard connection: subscribes to its objects and records when
/// each close's push arrived, plus the rows of the closes the oracle checks.
class Subscriber {
 public:
  struct Delivery {
    int64_t close;
    double recv_us;
  };

  Subscriber(const Workload& w, std::vector<std::string> names)
      : w_(w), names_(std::move(names)) {}
  Subscriber(const Subscriber&) = delete;
  Subscriber& operator=(const Subscriber&) = delete;
  ~Subscriber() { Stop(); }

  Status Connect(uint16_t port) {
    RETURN_IF_ERROR(client_.Connect("127.0.0.1", port));
    for (const std::string& name : names_) {
      RETURN_IF_ERROR(client_.Subscribe(name, kRequestTimeoutUs));
    }
    thread_ = std::thread([this] { Loop(); });
    return Status::OK();
  }

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  /// Newest close every subscribed object has delivered.
  int64_t complete_close() const { return complete_.load(); }

  // Read only after Stop().
  const std::vector<Delivery>& deliveries() const { return deliveries_; }
  const std::map<std::pair<int64_t, std::string>, std::vector<std::string>>&
  sampled() const {
    return sampled_;
  }
  const std::string& error() const { return error_; }

 private:
  void Loop() {
    std::map<int64_t, size_t> per_close;
    while (!stop_.load()) {
      Result<net::Push> push = client_.NextPush(20'000);
      if (!push.ok()) {
        if (!client_.connected()) {
          error_ = push.status().ToString();
          return;
        }
        continue;  // timed out; poll the stop flag
      }
      deliveries_.push_back({push->close, NowUs()});
      if ((push->close / w_.advance_us) % w_.verify_every == 0) {
        std::vector<std::string> rows;
        for (const Row& r : push->rows) rows.push_back(Canon(r));
        std::sort(rows.begin(), rows.end());
        sampled_[{push->close, push->source}] = std::move(rows);
      }
      if (++per_close[push->close] == names_.size()) {
        per_close.erase(per_close.begin(), per_close.upper_bound(push->close));
        if (push->close > complete_.load()) complete_.store(push->close);
      }
    }
  }

  const Workload& w_;
  std::vector<std::string> names_;
  net::Client client_;
  std::vector<Delivery> deliveries_;
  std::map<std::pair<int64_t, std::string>, std::vector<std::string>> sampled_;
  std::string error_;
  std::atomic<int64_t> complete_{INT64_MIN};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: joined before the members it uses go
};

// --- one server lifetime ----------------------------------------------------

/// What a run measures, pooled over its server lifetimes.
struct Totals {
  std::vector<double> setup_s, ack_us, fresh_us, report_us, topn_us, late_us,
      rss_mb;
  double cpu_us = 0, steal_ms = 0;
  int64_t timed_rows = 0, attempted = 0, failed = 0;
  // Per-layer values, one per server; the run reports their median.
  std::map<std::string, std::pair<std::vector<double>, std::string>> layers;

  void Layer(const std::string& name, double value, const std::string& unit) {
    auto& l = layers[name];
    l.first.push_back(value);
    l.second = unit;
  }
};

struct QueryRecord {
  ReportQuery query;
  bool ok = false;
  double latency_us = 0;
  std::vector<std::string> rows;  // canonical, in result order
};

class Session {
 public:
  Session(const Workload& w, const Options& o)
      : w_(w), o_(o), source_(w, o.seed), oracle_(w) {}

  /// Launch through warm-up; returns the seconds it took.
  Result<double> Setup(const std::string& init_file) {
    const double t0 = NowUs();
    RETURN_IF_ERROR(server_.Start(o_.server, init_file));
    RETURN_IF_ERROR(ingest_.Connect(server_.port()));
    for (const auto& names : w_.subscribers) {
      subs_.push_back(std::make_unique<Subscriber>(w_, names));
      RETURN_IF_ERROR(subs_.back()->Connect(server_.port()));
    }
    if (w_.reader) RETURN_IF_ERROR(reader_.Connect("127.0.0.1", server_.port()));
    for (int i = 0; i < w_.preload_batches; i += w_.preload_chunk) {
      RETURN_IF_ERROR(SendUntimed(w_.rows_per_batch *
                                  std::min(w_.preload_chunk,
                                           w_.preload_batches - i)));
    }
    for (int i = 0; i < w_.warmup_batches; ++i) {
      RETURN_IF_ERROR(SendUntimed(w_.rows_per_batch));
    }
    RETURN_IF_ERROR(AwaitDeliveries(last_close_));
    return (NowUs() - t0) / kSecond;
  }

  void RunTimed(int64_t batches) {
    acked_close_.store(last_close_);
    Batch next = NextBatch();
    uint64_t id = ingest_.NextId();
    std::string frame = IngestFrame(next, id);
    const int64_t start = NowMicros() + 2000;
    const OpenLoop schedule(start, w_.period_us);
    const double cpu0 = ProcessCpuMicros(server_.pid());
    const double steal0 = StealMs();
    std::thread reader;
    if (w_.reader) {
      reader = std::thread([this, batches, start] { ReaderLoop(batches, start); });
    }
    for (int64_t k = 0; k < batches; ++k) {
      const int64_t due = schedule.Due(k);
      late_.push_back(static_cast<double>(schedule.WaitFor(k)));
      ++attempted_;
      for (int64_t c : next_closes_) closing_due_[c] = due;
      Status st = ingest_.SendBytes(frame);
      Result<net::Frame> resp =
          st.ok() ? ingest_.Await(id, due + kRequestTimeoutUs) : st;
      if (resp.ok() && resp->type == net::FrameType::kAck) {
        ack_us_.push_back(NowUs() - static_cast<double>(due));
        if (!next_closes_.empty()) acked_close_.store(next_closes_.back());
      } else {
        Fail("ingest batch " + std::to_string(k) + ": " +
             (resp.ok() ? net::DecodeErrorBody(resp->body).ToString()
                        : resp.status().ToString()));
      }
      timed_rows_ += static_cast<int64_t>(next.rows.size());
      for (int64_t c : next_closes_) timed_closes_.push_back(c);
      if (k + 1 < batches) {
        next = NextBatch();
        id = ingest_.NextId();
        frame = IngestFrame(next, id);
      }
    }
    if (reader.joinable()) reader.join();
    late_.insert(late_.end(), reader_late_.begin(), reader_late_.end());
    if (!timed_closes_.empty()) {
      Status st = AwaitDeliveries(timed_closes_.back());
      if (!st.ok()) Fail("deliveries: " + st.ToString());
    }
    cpu_us_ = ProcessCpuMicros(server_.pid()) - cpu0;
    steal_ms_ = StealMs() - steal0;
  }

  /// After the timed phase: the catalog probe, SHOW STATS checks, pings
  /// and the oracle comparisons; adds this server's measurements to `t`.
  void Finish(Totals* t) {
    for (auto& s : subs_) s->Stop();
    CheckCatalog();
    std::map<std::string, double> stats = ReadStats();
    CheckStats(stats);
    // After SHOW STATS, so the pings stay out of its request histogram.
    std::vector<double> ping_us;
    for (int i = 0; i < kPings; ++i) {
      const double t0 = NowUs();
      Result<net::Frame> f = ingest_.Call(net::FrameType::kPing, "");
      if (f.ok()) ping_us.push_back(NowUs() - t0);
    }
    const std::vector<double> fresh = CheckDeliveries();
    t->fresh_us.insert(t->fresh_us.end(), fresh.begin(), fresh.end());
    CheckQueries(&t->report_us, &t->topn_us);
    t->rss_mb.push_back(PeakRssMb(server_.pid()));
    server_.Stop();

    t->ack_us.insert(t->ack_us.end(), ack_us_.begin(), ack_us_.end());
    t->late_us.insert(t->late_us.end(), late_.begin(), late_.end());
    t->cpu_us += cpu_us_;
    t->steal_ms += steal_ms_;
    t->timed_rows += timed_rows_;
    t->attempted += attempted_;
    t->failed += failures_;

    const double closes = static_cast<double>(closes_sent_);
    const double rows = static_cast<double>(rows_sent_);
    auto sum = [&](const std::string& scope, const std::string& suffix) {
      double total = 0;
      for (const auto& [key, v] : stats) {
        if (key.rfind(scope + "/", 0) == 0 && key.size() >= suffix.size() &&
            key.compare(key.size() - suffix.size(), suffix.size(), suffix) ==
                0) {
          total += v;
        }
      }
      return total;
    };
    t->Layer("net.wire_bytes_per_row", stats["net/server/bytes_in"] / rows,
             "B/row");
    t->Layer("net.pushes_per_close",
             stats["net/subscriptions/pushes_total"] / closes, "count");
    t->Layer("net.push_bytes_per_close",
             stats["net/server/bytes_out"] / closes, "B");
    t->Layer("net.request_p50_us", stats["net/requests/request_micros_p50"],
             "us");
    t->Layer("net.ping_rtt_p50_us", Percentile(ping_us, 0.5), "us");
    const double cq_closes = sum("cq", "/windows_closed");
    t->Layer("stream.eval_us_per_cq_close",
             sum("cq", "/eval_micros_total") / std::max(1.0, cq_closes), "us");
    t->Layer("stream.cq_closes_per_batch",
             cq_closes / static_cast<double>(batches_sent_), "count");
    t->Layer("stream.absorbs_per_row",
             sum("aggregator", "/rows_absorbed") / rows, "count");
    t->Layer("stream.live_slices", sum("aggregator", "/live_slices"), "count");
    t->Layer("stream.vectorize_fallbacks", stats["engine/vectorize/fallbacks"],
             "count");
    t->Layer("storage.wal_bytes_per_close", stats["engine/wal/bytes"] / closes,
             "B");
    t->Layer("storage.wal_records_per_close",
             stats["engine/wal/records"] / closes, "count");
    t->Layer("storage.sim_io_us_per_close",
             stats["engine/disk/simulated_io_micros"] / closes, "model_us");
    t->Layer("engine.lock_contended", sum("engine", "_contended"), "count");
    t->Layer("engine.lock_wait_us", sum("engine", "_wait_micros"), "us");
    t->Layer("common.governor_peak_mb",
             stats["overload/governor/bytes_peak"] / (1024.0 * 1024.0), "MB");
  }

 private:
  Batch NextBatch() {
    Batch b = source_.Next(w_.rows_per_batch);
    Track(b);
    return b;
  }

  /// Oracle bookkeeping for every batch sent: which closes it triggers
  /// and, for the sampled ones, what they must deliver.
  void Track(const Batch& b) {
    oracle_.Add(b);
    next_closes_ = rows_sent_ == 0 ? std::vector<int64_t>{}
                                   : ClosesBetween(prev_last_ts_, b.last_ts,
                                                   w_.advance_us);
    for (int64_t c : next_closes_) {
      if ((c / w_.advance_us) % w_.verify_every == 0) {
        expected_[c] = oracle_.Expected(c);
      }
    }
    if (!next_closes_.empty()) last_close_ = next_closes_.back();
    closes_sent_ += static_cast<int64_t>(next_closes_.size());
    rows_sent_ += static_cast<int64_t>(b.rows.size());
    ++batches_sent_;
    prev_last_ts_ = b.last_ts;
  }

  Status SendUntimed(int64_t rows) {
    Batch b = source_.Next(rows);
    Track(b);
    const uint64_t id = ingest_.NextId();
    RETURN_IF_ERROR(ingest_.SendBytes(IngestFrame(b, id)));
    ASSIGN_OR_RETURN(net::Frame f,
                     ingest_.Await(id, NowMicros() + kRequestTimeoutUs));
    if (f.type != net::FrameType::kAck) return net::DecodeErrorBody(f.body);
    return Status::OK();
  }

  Status AwaitDeliveries(int64_t close) {
    const int64_t deadline = NowMicros() + kDrainTimeoutUs;
    for (auto& s : subs_) {
      while (s->complete_close() < close) {
        if (NowMicros() > deadline) {
          return Status::Unavailable("pushes for close " +
                                     std::to_string(close) + " missing");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    return Status::OK();
  }

  void ReaderLoop(int64_t queries, int64_t start) {
    const OpenLoop schedule(start, w_.period_us, w_.period_us / 2);
    Rng rng(ReaderSeed(o_.seed));
    for (int64_t j = 0; j < queries; ++j) {
      const int64_t late = schedule.WaitFor(j);
      QueryRecord rec;
      rec.query = MakeReportQuery(j, &rng, acked_close_.load());
      Result<net::RowSet> rs = reader_.Query(rec.query.sql, kRequestTimeoutUs);
      rec.latency_us = NowUs() - static_cast<double>(schedule.Due(j));
      rec.ok = rs.ok();
      if (rs.ok()) {
        for (const Row& row : rs->rows) rec.rows.push_back(Canon(row));
      }
      reader_late_.push_back(static_cast<double>(late));
      queries_.push_back(std::move(rec));
    }
  }

  void Fail(const std::string& what) {
    ++failures_;
    if (failures_ <= 10) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }

  void CheckCatalog() {
    ++attempted_;
    Result<net::RowSet> rs =
        ingest_.Query(kCatalogProbeSql);
    if (!rs.ok()) return Fail("sys_cqs probe: " + rs.status().ToString());
    size_t shared = 0;
    for (const Row& row : rs->rows) shared += row[1].AsString() == "shared";
    if (shared != w_.outputs.size()) {
      Fail("expected " + std::to_string(w_.outputs.size()) +
           " shared CQs, found " + std::to_string(shared));
    }
  }

  std::map<std::string, double> ReadStats() {
    std::map<std::string, double> stats;
    ++attempted_;
    Result<net::RowSet> rs = ingest_.Query("SHOW STATS");
    if (!rs.ok()) {
      Fail("SHOW STATS: " + rs.status().ToString());
      return stats;
    }
    for (const Row& row : rs->rows) {
      if (row.size() == 4 && !row[3].is_null()) {
        stats[row[0].AsString() + "/" + row[1].AsString() + "/" +
              row[2].AsString()] = static_cast<double>(row[3].AsInt64());
      }
    }
    return stats;
  }

  /// The SHOW STATS FOR OVERLOAD / FOR NET invariants.
  void CheckStats(std::map<std::string, double>& stats) {
    auto expect = [&](const std::string& key, double want) {
      ++attempted_;
      if (stats[key] != want) {
        Fail(key + " = " + std::to_string(stats[key]) + ", expected " +
             std::to_string(want));
      }
    };
    expect("overload/s/rows_admitted", static_cast<double>(rows_sent_));
    expect("overload/s/rows_shed", 0);
    expect("overload/s/rows_quarantined", 0);
    expect("net/subscriptions/pushes_shed", 0);
    expect("net/subscriptions/pushes_disconnected", 0);
    expect("net/subscriptions/slow_disconnects", 0);
    expect("engine/vectorize/fallbacks", 0);
  }

  /// Freshness per timed close, plus the oracle check of sampled closes.
  std::vector<double> CheckDeliveries() {
    std::map<int64_t, std::pair<size_t, double>> seen;  // count, last recv
    for (auto& s : subs_) {
      if (!s->error().empty()) Fail("subscriber: " + s->error());
      for (const Subscriber::Delivery& d : s->deliveries()) {
        auto& e = seen[d.close];
        ++e.first;
        e.second = std::max(e.second, d.recv_us);
      }
      for (const auto& [key, rows] : s->sampled()) {
        auto want = expected_.find(key.first);
        if (want != expected_.end() && closing_due_.count(key.first)) {
          ++attempted_;
          if (rows != want->second) {
            Fail("close " + std::to_string(key.first) + " of " + key.second +
                 " differs from the oracle");
          }
        }
      }
    }
    std::vector<double> fresh;
    const size_t per_close = w_.deliveries_per_close();
    for (int64_t c : timed_closes_) {
      attempted_ += static_cast<int64_t>(per_close);
      auto it = seen.find(c);
      const size_t got = it == seen.end() ? 0 : it->second.first;
      if (got < per_close) {
        for (size_t i = got; i < per_close; ++i) {
          Fail("close " + std::to_string(c) + " not delivered");
        }
        continue;
      }
      fresh.push_back(it->second.second - static_cast<double>(closing_due_[c]));
    }
    return fresh;
  }

  void CheckQueries(std::vector<double>* report_us, std::vector<double>* topn_us) {
    for (const QueryRecord& q : queries_) {
      ++attempted_;
      if (!q.ok) {
        Fail("report query failed: " + q.query.sql);
        continue;
      }
      if (q.rows != oracle_.Answer(q.query)) {
        Fail("report query answer differs from the oracle: " + q.query.sql);
        continue;
      }
      (q.query.topn ? topn_us : report_us)->push_back(q.latency_us);
    }
  }

  const Workload& w_;
  const Options& o_;
  RowSource source_;
  Oracle oracle_;
  ServerProcess server_;
  FrameConn ingest_;
  std::vector<std::unique_ptr<Subscriber>> subs_;
  net::Client reader_;

  // Generator bookkeeping (main thread).
  int64_t prev_last_ts_ = 0;
  int64_t last_close_ = INT64_MIN;
  std::vector<int64_t> next_closes_;
  std::map<int64_t, std::vector<std::string>> expected_;
  std::map<int64_t, int64_t> closing_due_;  // timed close -> due of its batch
  std::vector<int64_t> timed_closes_;
  int64_t rows_sent_ = 0, closes_sent_ = 0, batches_sent_ = 0;
  int64_t timed_rows_ = 0;
  std::vector<double> ack_us_;
  std::atomic<int64_t> acked_close_{INT64_MIN};

  std::vector<double> late_;
  // Written by the reader thread only, read after it is joined.
  std::vector<double> reader_late_;
  std::vector<QueryRecord> queries_;

  double cpu_us_ = 0, steal_ms_ = 0;
  int64_t attempted_ = 0, failures_ = 0;
};

/// The run's metrics: latencies pooled over every server's samples, CPU
/// over all timed rows, per-layer values as the median over servers.
std::string Json(const Workload& w, const Totals& t) {
  Report r;
  r.Metric("setup_s", Percentile(t.setup_s, 0.5), "s", t.setup_s.size());
  r.Metric("server_cpu_us_per_krow",
           t.cpu_us / (static_cast<double>(t.timed_rows) / 1000.0), "us/krow",
           static_cast<size_t>(t.timed_rows));
  r.Latency("ingest_ack", t.ack_us);
  r.Latency("fresh", t.fresh_us);
  if (w.reader) {
    r.Latency("report", t.report_us);
    r.Latency("topn", t.topn_us);
  }
  r.Metric("peak_rss_mb", Percentile(t.rss_mb, 0.5), "MB", t.rss_mb.size());
  for (const auto& [name, layer] : t.layers) {
    r.Layer(name, Percentile(layer.first, 0.5), layer.second);
  }
  r.Layer("gen.late_p99_us", Percentile(t.late_us, 0.99), "us");
  r.Layer("host.steal_ms", t.steal_ms, "ms");
  return r.Json(t.attempted, t.failed);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_load --workload NAME --seed N --seconds S "
               "--server PATH --workdir DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::stoull(value);
    else if (flag == "--seconds") o.seconds = std::stoll(value);
    else if (flag == "--server") o.server = value;
    else if (flag == "--workdir") o.workdir = value;
    else return Usage();
  }
  const Workload* w = FindWorkload(o.workload);
  if (w == nullptr || o.server.empty() || o.workdir.empty() || o.seconds < 1) {
    return Usage();
  }
  const std::string init_file = o.workdir + "/" + w->name + ".sql";
  {
    std::ofstream out(init_file);
    out << w->init_sql;
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", init_file.c_str());
      return 1;
    }
  }
  Totals totals;
  for (int r = 0; r < kServers; ++r) {
    Session session(*w, o);
    Result<double> t = session.Setup(init_file);
    if (!t.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", t.status().ToString().c_str());
      return 1;
    }
    totals.setup_s.push_back(*t);
    session.RunTimed(w->batches_per_server(o.seconds));
    session.Finish(&totals);
  }
  std::printf("%s\n", Json(*w, totals).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
