#include "live.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "fabp/net/client.hpp"
#include "fabp/net/server.hpp"
#include "fabp/net/wire.hpp"

namespace perfbench {
namespace {

namespace net = fabp::net;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

// --- the server process ----------------------------------------------------

/// One `fabp serve --tcp` child.  stdout is a pipe (the port line, then
/// drained to EOF and dropped); stderr goes to a log file.  The child is killed if
/// this process dies first.
class ServerProcess {
 public:
  ServerProcess(const std::vector<std::string>& argv,
                const std::string& err_log) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error{"pipe() failed"};
    const int err_fd =
        ::open(err_log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (err_fd < 0) throw std::runtime_error{"cannot open " + err_log};
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    started_ = Clock::now();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error{"fork() failed"};
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      ::dup2(err_fd, STDERR_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::close(err_fd);
      ::execv(args[0], args.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    ::close(err_fd);
    out_fd_ = fds[0];
  }

  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Reads stdout until the "listening on host:port" line; returns the
  /// port.  Throws when the child exits or stays silent for `timeout_s`.
  std::uint16_t wait_listening(double timeout_s) {
    std::string text;
    const auto deadline = Clock::now() + std::chrono::duration_cast<
        Clock::duration>(std::chrono::duration<double>(timeout_s));
    for (;;) {
      const std::size_t at = text.find("listening on ");
      const std::size_t eol = text.find('\n', at == std::string::npos ? 0 : at);
      if (at != std::string::npos && eol != std::string::npos) {
        const std::string line = text.substr(at, eol - at);
        const std::size_t colon = line.rfind(':');
        drain_ = std::thread{[this] { drain(); }};
        return static_cast<std::uint16_t>(
            std::stoul(line.substr(colon + 1)));
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0)
        throw std::runtime_error{"server did not report its port"};
      pollfd pfd{out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
      char buf[4096];
      const ssize_t n = ::read(out_fd_, buf, sizeof buf);
      if (n <= 0) throw std::runtime_error{"server exited during set-up"};
      text.append(buf, static_cast<std::size_t>(n));
    }
  }

  pid_t pid() const noexcept { return pid_; }
  Clock::time_point started() const noexcept { return started_; }

  /// SIGTERM (graceful drain), then wait; returns the exit status.
  int stop() {
    if (pid_ <= 0) return exit_status_;
    ::kill(pid_, SIGTERM);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    if (drain_.joinable()) drain_.join();
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
    exit_status_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    return exit_status_;
  }

 private:
  /// Reads stdout to EOF so the server never blocks on a full pipe.
  void drain() {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(out_fd_, buf, sizeof buf);
      if (n == 0 || (n < 0 && errno != EINTR)) return;
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int exit_status_ = 0;
  Clock::time_point started_{};
  std::thread drain_;
};

/// user + system CPU seconds of every thread of `pid`.
double process_cpu_seconds(pid_t pid) {
  std::ifstream in{"/proc/" + std::to_string(pid) + "/stat"};
  std::string text;
  std::getline(in, text);
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields{text.substr(close + 2)};
  std::string field;
  double utime = 0.0, stime = 0.0;
  // Fields after the command: state is field 3; utime 14, stime 15.
  for (int index = 3; fields >> field; ++index) {
    if (index == 14) utime = std::stod(field);
    if (index == 15) {
      stime = std::stod(field);
      break;
    }
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in{"/proc/" + std::to_string(pid) + "/status"};
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

// --- wire helpers: one attempt per call, no retries --------------------------

std::string stats_text(int fd) {
  if (!net::write_frame(fd, net::encode_stats_request()))
    throw std::runtime_error{"stats request failed"};
  std::string payload;
  net::StatsResponse response;
  if (!net::read_frame(fd, payload) || !net::decode(payload, response))
    throw std::runtime_error{"stats response failed"};
  return response.text;
}

struct SwapOutcome {
  bool ok = false;
  std::uint64_t generation = 0;
  double ms = 0.0;
  std::string error;
};

SwapOutcome swap(net::Socket& conn, const std::string& host,
                 std::uint16_t port, const std::string& name,
                 const std::string& path) {
  SwapOutcome out;
  if (!conn.valid()) {
    try {
      conn = net::connect_to(host, port);
    } catch (const std::exception& e) {
      out.error = e.what();
      return out;
    }
  }
  const auto t0 = Clock::now();
  net::SwapDatabaseRequest request;
  request.name = name;
  request.path = path;
  std::string payload;
  net::SwapDatabaseResponse response;
  if (!net::write_frame(conn.fd(), net::encode(request)) ||
      net::read_frame_status(conn.fd(), payload) != net::FrameRead::Ok ||
      !net::decode(payload, response)) {
    conn.close();
    out.error = "swap: transport failure";
    return out;
  }
  out.ms = seconds_between(t0, Clock::now()) * 1e3;
  out.ok = response.ok();
  out.generation = response.generation;
  out.error = response.error;
  return out;
}

/// Value of `key=` on the first line that starts with `prefix`; throws
/// when the stats text has no such value, so a changed format fails the
/// run instead of reading as a number.
double stats_value(const std::string& text, const std::string& prefix,
                   const std::string& key) {
  std::istringstream in{text};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t at = line.find(" " + key + "=");
    if (at == std::string::npos) break;
    return std::stod(line.substr(at + key.size() + 2));
  }
  throw std::runtime_error{"stats text has no " + key + "= on a \"" + prefix +
                           "\" line:\n" + text};
}

// --- shared run state ---------------------------------------------------------

struct Shared {
  explicit Shared(const Workload& w) : workload{w} {}

  const Workload& workload;
  std::vector<std::string> files;  ///< per reference, then alternates
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  bool record = false;

  std::mutex mutex;  // guards everything below
  std::size_t aligns_attempted = 0;
  std::size_t aligns_failed = 0;
  std::size_t check_failures = 0;
  std::vector<std::string> check_messages;

  void check_failed(std::string message) {
    std::lock_guard lock{mutex};
    ++check_failures;
    if (check_messages.size() < 5) check_messages.push_back(std::move(message));
  }
};

/// Full-score hits of a planted query on a swapped database, checked once
/// the generation -> file map is complete.
struct DeferredPlant {
  std::uint64_t generation = 0;
  std::string protein;
  net::AlignResponse full_score;
};

/// A response kept for the oracle comparison after the timed phase.
struct Sample {
  std::size_t client = 0;
  std::uint64_t generation = 0;
  std::string protein;
  net::AlignResponse response;
};

struct ClientLog {
  std::vector<double> rtt_ms;
  std::vector<double> server_ms;
  double response_bytes = 0.0;
  double hits = 0.0;
  Clock::time_point last_done{};
  std::vector<DeferredPlant> deferred;
  std::vector<Sample> samples;
  std::vector<std::pair<Clock::time_point, RecordedRequest>> sent;
  std::vector<std::string> payloads;
};

const Reference& reference_named(const Workload& w, const std::string& db) {
  for (const Reference& r : w.references)
    if (r.database == db) return r;
  throw std::logic_error{"no reference for database " + db};
}

class AlignClient {
 public:
  AlignClient(Shared& shared, std::size_t index)
      : shared_{shared},
        index_{index},
        spec_{shared.workload.clients[index]},
        swapped_{spec_.database == shared.workload.swap_database} {}

  /// One align call; `timed` calls feed the metrics.
  void call(bool timed) {
    const Workload& w = shared_.workload;
    const std::size_t i = next_++;
    net::AlignRequest request;
    request.id = i + 1;
    request.threshold = w.threshold;
    request.protein = request_protein(w, index_, i);
    request.database = spec_.database;
    request.tenant = spec_.tenant;
    {
      std::lock_guard lock{shared_.mutex};
      ++shared_.aligns_attempted;
    }
    const auto t0 = Clock::now();
    net::AlignResponse response;
    const bool ok = exchange(request, response);
    const auto t1 = Clock::now();
    if (!ok || !response.ok()) {
      std::lock_guard lock{shared_.mutex};
      ++shared_.aligns_failed;
      if (ok && shared_.check_messages.size() < 5)
        shared_.check_messages.push_back("align failed: status " +
                                         std::to_string(response.status) +
                                         " " + response.error);
      return;
    }
    if (timed) {
      log.rtt_ms.push_back(seconds_between(t0, t1) * 1e3);
      log.server_ms.push_back(response.server_seconds * 1e3);
      log.response_bytes += static_cast<double>(last_frame_bytes_);
      log.hits += static_cast<double>(response.hits.size() +
                                      response.reverse_hits.size());
      log.last_done = t1;
      if (shared_.record) {
        log.sent.emplace_back(
            t0, RecordedRequest{request.protein, request.database,
                                request.tenant});
        if (log.payloads.size() < 16) log.payloads.push_back(last_payload_);
      }
    }
    verify(request, response, i);
  }

  ClientLog log;

 private:
  bool exchange(const net::AlignRequest& request, net::AlignResponse& out) {
    if (!conn_.valid()) {
      try {
        conn_ = net::connect_to(shared_.host, shared_.port);
      } catch (const std::exception&) {
        return false;
      }
    }
    if (!net::write_frame(conn_.fd(), net::encode(request)) ||
        net::read_frame_status(conn_.fd(), last_payload_) !=
            net::FrameRead::Ok ||
        !net::decode(last_payload_, out) || out.id != request.id) {
      conn_.close();  // the next call reconnects; this one failed
      return false;
    }
    last_frame_bytes_ = 4 + last_payload_.size() + net::kFrameCrcBytes;
    return true;
  }

  void verify(const net::AlignRequest& request,
              const net::AlignResponse& response, std::size_t i) {
    const Workload& w = shared_.workload;
    const Reference& ref = reference_named(w, spec_.database);
    const long planted = planted_index(w, request.protein);
    // A swapped database's plants depend on the generation the response
    // echoes; those are checked once the generation map is complete.
    Expectation expect;
    if (swapped_) {
      expect.threshold = w.threshold;
      expect.reference_size = served_size(ref);
    } else {
      expect = expect_for(w, ref, request.protein, nullptr);
    }
    const std::string bad = check_response(expect, response);
    if (!bad.empty()) {
      shared_.check_failed("client " + std::to_string(index_) + " request " +
                           std::to_string(i) + ": " + bad);
      return;
    }
    if (swapped_ && planted >= 0) {
      DeferredPlant d{response.generation, request.protein, {}};
      for (const auto& h : response.hits)
        if (h.score == kQueryElements) d.full_score.hits.push_back(h);
      for (const auto& h : response.reverse_hits)
        if (h.score == kQueryElements) d.full_score.reverse_hits.push_back(h);
      log.deferred.push_back(std::move(d));
    }
    // A bounded, deterministic sample for the oracle: planted and random
    // queries alike, off the timed path.
    if (i % 41 == 7 && log.samples.size() < 3)
      log.samples.push_back(
          Sample{index_, response.generation, request.protein, response});
  }

  Shared& shared_;
  std::size_t index_;
  ClientSpec spec_;
  bool swapped_;
  std::size_t next_ = 0;
  net::Socket conn_;
  std::string last_payload_;
  std::size_t last_frame_bytes_ = 0;
};

std::vector<std::string> server_argv(const Workload& w,
                                     const LiveOptions& options,
                                     const std::vector<std::string>& files) {
  // Positional operands: a 1 kbp default reference nobody queries, and the
  // engine worker count.
  std::vector<std::string> argv{options.fabp, "serve", "1024", "24", "64",
                                std::to_string(w.workers),
                                "--backend", w.backend, "--tcp", "0"};
  if (w.shards > 1) {
    argv.push_back("--shards");
    argv.push_back(std::to_string(w.shards));
  }
  for (std::size_t i = 0; i < w.references.size(); ++i) {
    argv.push_back("--db");
    argv.push_back(w.references[i].database + "=" + files[i]);
  }
  for (const std::string& t : w.tenant_flags) {
    argv.push_back("--tenant");
    argv.push_back(t);
  }
  return argv;
}

/// Spawns the server and waits until it answers a StatsRequest with every
/// database resident; returns the seconds that took.
double start_server(std::unique_ptr<ServerProcess>& server, Shared& shared,
                    const std::vector<std::string>& argv,
                    const std::string& err_log) {
  server = std::make_unique<ServerProcess>(argv, err_log);
  shared.port = server->wait_listening(120.0);
  net::Socket conn = net::connect_to(shared.host, shared.port);
  const std::string text = stats_text(conn.fd());
  const double seconds = seconds_between(server->started(), Clock::now());
  for (const Reference& r : shared.workload.references)
    if (text.find("database " + r.database + ": generation=1") ==
        std::string::npos)
      throw std::runtime_error{"database " + r.database +
                               " not resident after set-up:\n" + text};
  return seconds;
}

}  // namespace

LiveResult run_live(const Workload& w, const LiveOptions& options) {
  LiveResult result;
  Shared shared{w};
  shared.record = options.record;
  for (const Reference& r : w.references) {
    shared.files.push_back(options.work_dir + "/" + r.database + ".fa");
    write_fasta(shared.files.back(), r.database, r.dna);
  }
  for (std::size_t i = 0; i < w.alternates.size(); ++i) {
    shared.files.push_back(options.work_dir + "/" +
                           w.alternates[i].database + "-alt" +
                           std::to_string(i) + ".fa");
    write_fasta(shared.files.back(), w.alternates[i].database,
                w.alternates[i].dna);
  }
  const std::vector<std::string> argv = server_argv(w, options, shared.files);
  const std::string err_log = options.work_dir + "/server.log";

  // --- set-up, several times; the last server stays up for the run.
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  for (std::size_t k = 0; k < w.setup_repeats; ++k) {
    if (server) server->stop();
    setups.push_back(start_server(server, shared, argv, err_log));
  }
  result.setup_s = median_of(setups);
  const pid_t pid = server->pid();

  // --- idle republishes of the first reference measure swap_ms where no
  // swaps run under load: half before the timed phase, half after it, so
  // the median spans the run.  One admin connection serves both halves,
  // so every publish runs on the same server thread.
  const bool swapping = !w.swap_database.empty();
  std::vector<double> swap_ms;
  std::uint64_t previous_generation = 1;
  net::Socket admin;
  const auto idle_publish = [&](std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      const SwapOutcome s = swap(admin, shared.host, shared.port,
                                 w.references[0].database, shared.files[0]);
      ++result.swaps_attempted;
      if (!s.ok) {
        ++result.swaps_failed;
        shared.check_failed("swap failed: " + s.error);
        continue;
      }
      if (s.generation <= previous_generation)
        shared.check_failed("swap returned generation " +
                            std::to_string(s.generation) + " after " +
                            std::to_string(previous_generation));
      previous_generation = s.generation;
      swap_ms.push_back(s.ms);
    }
  };
  if (!swapping) idle_publish(w.idle_publishes / 2);

  // --- closed-loop clients (+ the admin connection of a swap workload).
  std::vector<std::unique_ptr<AlignClient>> clients;
  for (std::size_t c = 0; c < w.clients.size(); ++c)
    clients.push_back(std::make_unique<AlignClient>(shared, c));
  Clock::time_point t_start{}, t_end{};
  double cpu_start = 0.0;
  std::barrier sync{static_cast<std::ptrdiff_t>(clients.size() + (swapping ? 1 : 0)),
                    [&]() noexcept {
                      cpu_start = process_cpu_seconds(pid);
                      t_start = Clock::now();
                      t_end = t_start + std::chrono::duration_cast<
                                            Clock::duration>(
                                            std::chrono::duration<double>(
                                                options.seconds));
                    }};

  // Generation -> file index of the swapped database (0 = the --db file).
  std::map<std::uint64_t, std::size_t> generation_file{{1, 0}};
  std::uint64_t last_generation = 1;
  std::vector<std::thread> threads;
  for (auto& client : clients)
    threads.emplace_back([&, c = client.get()] {
      for (std::size_t i = 0; i < w.warmup_requests; ++i) c->call(false);
      sync.arrive_and_wait();
      while (Clock::now() < t_end) c->call(true);
    });
  if (swapping)
    threads.emplace_back([&] {
      net::Socket conn;
      sync.arrive_and_wait();
      const std::string alt = shared.files[w.references.size()];
      const std::string own = shared.files[0];
      for (std::size_t k = 1;; ++k) {
        const auto tick = t_start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(
                                            w.swap_period_s * k));
        if (tick >= t_end) break;
        std::this_thread::sleep_until(tick);
        const std::size_t file = k % 2 == 1 ? 1 : 0;
        const SwapOutcome s = swap(conn, shared.host, shared.port,
                                   w.swap_database, file == 1 ? alt : own);
        ++result.swaps_attempted;
        if (!s.ok) {
          ++result.swaps_failed;
          shared.check_failed("swap failed: " + s.error);
          continue;
        }
        swap_ms.push_back(s.ms);
        if (s.generation <= last_generation)
          shared.check_failed("swap returned generation " +
                              std::to_string(s.generation) + " after " +
                              std::to_string(last_generation));
        last_generation = s.generation;
        generation_file[s.generation] = file;
      }
    });
  for (std::thread& t : threads) t.join();
  const double cpu_end = process_cpu_seconds(pid);

  // --- end-to-end figures of the timed phase.
  // The layer figures compare with the first client's database's own
  // stats line, so they come from that database's requests only.
  std::vector<double> rtt, primary_server_ms;
  double bytes = 0.0, hits = 0.0, transit = 0.0, primary_total = 0.0;
  Clock::time_point last_done = t_start;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    const ClientLog& log = clients[c]->log;
    const bool primary = w.clients[c].database == w.clients[0].database;
    rtt.insert(rtt.end(), log.rtt_ms.begin(), log.rtt_ms.end());
    for (std::size_t i = 0; i < log.rtt_ms.size(); ++i) {
      transit += log.rtt_ms[i] - log.server_ms[i];
      if (!primary) continue;
      primary_server_ms.push_back(log.server_ms[i]);
      primary_total += log.rtt_ms[i];
    }
    bytes += log.response_bytes;
    hits += log.hits;
    last_done = std::max(last_done, log.last_done);
  }
  if (rtt.empty() || primary_server_ms.empty())
    throw std::runtime_error{"no align completed"};
  result.timed_aligns = rtt.size();
  result.wall_s = seconds_between(t_start, last_done);
  const double n = static_cast<double>(rtt.size());
  result.qps = n / result.wall_s;
  result.server_cpu_ms_per_req = (cpu_end - cpu_start) * 1e3 / n;
  result.resp_bytes_per_req = bytes / n;
  result.hits_per_req = hits / n;
  result.transit_ms = transit / n;
  result.latency_mean_ms =
      primary_total / static_cast<double>(primary_server_ms.size());
  result.server_seconds_p50_ms = median_of(primary_server_ms);
  std::sort(rtt.begin(), rtt.end());
  result.latency_p50_ms = percentile(rtt, 50.0);
  result.latency_p99_ms = percentile(rtt, 99.0);

  // --- the server's own view, right after the timed phase.
  std::string stats;
  {
    net::Socket conn = net::connect_to(shared.host, shared.port);
    stats = stats_text(conn.fd());
  }
  if (options.record) {
    result.engine_p50_ms = stats_value(
        stats, "database " + w.clients[0].database + ":", "p50");
    result.batch_occupancy = stats_value(stats, "engine:", "occupancy");
  }
  if (swapping) {
    // Every retired generation must be reclaimed once the clients are
    // idle: nothing pins it any more.
    const std::string prefix = "database " + w.swap_database + ":";
    const double reclaimed =
        stats_value(stats, prefix, "reclaimed");
    const std::size_t retired = generation_file.size() - 1;
    if (reclaimed < static_cast<double>(retired) ||
        stats.find(" retired") != std::string::npos)
      shared.check_failed("retired generations not reclaimed (" +
                          std::to_string(retired) + " retired, stats say " +
                          std::to_string(reclaimed) + "):\n" +
                          stats);
  }

  // --- deferred and sampled checks, off the timed path.
  std::vector<const Reference*> swap_files;
  if (swapping) {
    swap_files.push_back(&w.references[0]);
    swap_files.push_back(&w.alternates[0]);
  }
  const auto reference_for = [&](const std::string& db,
                                 std::uint64_t generation) -> const Reference* {
    if (db != w.swap_database) return &reference_named(w, db);
    const auto it = generation_file.find(generation);
    return it == generation_file.end() ? nullptr : swap_files[it->second];
  };
  for (const auto& client : clients) {
    for (const DeferredPlant& d : client->log.deferred) {
      const Reference* ref = reference_for(w.swap_database, d.generation);
      if (ref == nullptr) {
        shared.check_failed("response echoes unknown generation " +
                            std::to_string(d.generation));
        continue;
      }
      const Reference* other =
          ref == swap_files[0] ? swap_files[1] : swap_files[0];
      Expectation e = expect_for(w, *ref, d.protein, other);
      e.threshold = kQueryElements;  // only full-score hits were kept
      const std::string bad = check_response(e, d.full_score);
      if (!bad.empty())
        shared.check_failed("generation " + std::to_string(d.generation) +
                            ": " + bad);
    }
    for (const Sample& s : client->log.samples) {
      const std::string& db = w.clients[s.client].database;
      const Reference* ref = reference_for(db, s.generation);
      if (ref == nullptr) continue;  // reported above
      const long planted = planted_index(w, s.protein);
      std::size_t begin = 0;
      bool placed = false;
      for (const Plant& p : ref->plants)
        if (planted >= 0 && p.protein == static_cast<std::size_t>(planted)) {
          begin = p.forward > 4000 ? p.forward - 4000 : 0;
          placed = true;
          break;
        }
      if (!placed) {
        Rng rng{mix(w.seed, s.client, s.response.id)};
        begin = rng.below(ref->dna.size());
      }
      const std::string bad = oracle_compare(s.protein, ref->dna, w.threshold,
                                             s.response, begin, 16384);
      if (!bad.empty())
        shared.check_failed("oracle, client " + std::to_string(s.client) +
                            " request " + std::to_string(s.response.id) +
                            ": " + bad);
    }
  }

  // The second half of the idle republishes.
  if (!swapping) idle_publish(w.idle_publishes - w.idle_publishes / 2);
  result.swaps_timed = swap_ms.size();
  result.swap_ms = median_of(swap_ms);

  result.rss_peak_mb = peak_rss_mb(pid);
  const int status = server->stop();
  if (status != 0)
    shared.check_failed("server exited with status " + std::to_string(status));

  if (options.record) {
    std::vector<std::pair<Clock::time_point, RecordedRequest>> sent;
    for (auto& client : clients) {
      for (auto& s : client->log.sent) sent.push_back(std::move(s));
      for (auto& p : client->log.payloads)
        result.response_payloads.push_back(std::move(p));
    }
    std::stable_sort(sent.begin(), sent.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    for (auto& s : sent) result.requests.push_back(std::move(s.second));
  }

  result.aligns_attempted = shared.aligns_attempted;
  result.aligns_failed = shared.aligns_failed;
  result.check_failures = shared.check_failures;
  result.check_messages = shared.check_messages;
  return result;
}

}  // namespace perfbench
