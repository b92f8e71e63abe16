#include "exp/dispatch/process_coordinator.h"

#include <stdexcept>

#include "core/replay_codec.h"
#include "core/varint.h"
#include "exp/dispatch/wire.h"

#if defined(__unix__) || defined(__APPLE__)

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <optional>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace ups::exp::dispatch {
namespace {

// A job that killed this many workers in a row is poisoned: mark it failed
// instead of respawning workers for it forever.
constexpr int kMaxJobAttempts = 3;

// Default assign->result watchdog deadline. Generous — real replay jobs
// legitimately run minutes at RocketFuel scale — yet finite, so a hung
// worker can never hang the whole run. Tests setting
// backend_spec::hang_worker_after dial it down via
// backend_spec::worker_timeout_ms.
constexpr std::int64_t kDefaultWorkerTimeoutMs = 15 * 60 * 1000;

using core::unzigzag;
using core::zigzag;

// --- result payloads (after the leading `varint job`) ---------------------

void encode_shard_replay(const shard_replay& r,
                         std::vector<std::uint8_t>& out) {
  out.push_back(static_cast<std::uint8_t>(r.mode));
  put_f64(out, r.wall_seconds);
  core::encode_replay_result(r.result, out);
}

void decode_shard_replay(const std::uint8_t*& p, const std::uint8_t* end,
                         shard_replay& slot) {
  if (p == end) throw wire_error("replay result: truncated mode byte");
  slot.mode = static_cast<core::replay_mode>(*p++);
  slot.wall_seconds = get_f64(p, end);
  slot.result = core::decode_replay_result(p, end);
}

void encode_memory_result(const shard_result& r,
                          std::vector<std::uint8_t>& out) {
  // The scenario is NOT serialized: the coordinator owns the plan and
  // restores slot.sc from it, so only measured data crosses the wire.
  put_varint(out, r.trace_packets);
  put_varint(out, zigzag(r.threshold_T));
  put_f64(out, r.original_wall_seconds);
  put_varint(out, r.original_peak_pool_packets);
  put_varint(out, r.original_flows_completed);
  put_varint(out, r.replays.size());
  for (const shard_replay& rep : r.replays) encode_shard_replay(rep, out);
}

void decode_memory_result(const std::uint8_t*& p, const std::uint8_t* end,
                          shard_result& slot) {
  slot.trace_packets = get_varint(p, end);
  slot.threshold_T = unzigzag(get_varint(p, end));
  slot.original_wall_seconds = get_f64(p, end);
  slot.original_peak_pool_packets = get_varint(p, end);
  slot.original_flows_completed = get_varint(p, end);
  const std::uint64_t n = get_varint(p, end);
  if (n > static_cast<std::uint64_t>(end - p)) {
    throw wire_error("memory result: replay count overruns frame");
  }
  slot.replays.assign(n, shard_replay{});
  for (shard_replay& rep : slot.replays) decode_shard_replay(p, end, rep);
}

// --- worker process -------------------------------------------------------

struct worker_config {
  std::uint64_t kill_after = 0;  // SIGKILL before reporting the K-th job
  std::uint64_t garble_at = 0;   // truncated garbage instead of K-th result
  std::uint64_t hang_after = 0;  // hang forever before reporting K-th job
};

// Reads fd into rx until it holds a whole frame, and pops it into f. Exits
// 10 on a read error, a malformed header or EOF mid-frame, and 11 on EOF at
// a frame boundary (the coordinator vanished).
void receive(int fd, frame_splitter& rx, frame& f) {
  std::uint8_t buf[4096];
  for (;;) {
    try {
      if (rx.pop(f)) return;
    } catch (...) {
      _exit(10);
    }
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      _exit(10);
    }
    if (n == 0) _exit(rx.mid_frame() ? 10 : 11);
    rx.feed(buf, static_cast<std::size_t>(n));
  }
}

[[noreturn]] void worker_main(const job_plan& plan, int fd,
                              const worker_config& cfg) {
  std::uint64_t completed = 0;
  frame_splitter rx;
  frame f;
  std::vector<std::uint8_t> payload;
  for (;;) {
    receive(fd, rx, f);
    if (f.type == frame_type::shutdown) _exit(0);
    if (f.type != frame_type::assign) _exit(12);
    std::size_t job = 0;
    try {
      const std::uint8_t* p = f.payload.data();
      job = static_cast<std::size_t>(get_varint(p, p + f.payload.size()));
    } catch (...) {
      _exit(13);
    }
    ++completed;
    if (cfg.garble_at != 0 && completed == cfg.garble_at) {
      // A header promising 64 payload bytes followed by 8 and EOF — the
      // truncated-result-frame failure the coordinator must classify as
      // a typed protocol error, not hang on.
      std::uint8_t garbage[kFrameHeaderBytes + 8] = {};
      const std::uint32_t len = 64;
      std::memcpy(garbage, &len, 4);
      garbage[4] = static_cast<std::uint8_t>(frame_type::result);
      (void)::send(fd, garbage, sizeof garbage, MSG_NOSIGNAL);
      _exit(16);
    }
    payload.clear();
    put_varint(payload, job);
    const std::string error = run_guarded([&] {
      if (plan.disk) {
        encode_shard_replay(run_disk_job(plan, job), payload);
      } else {
        encode_memory_result(run_memory_job(plan, job), payload);
      }
    });
    if (!error.empty()) {
      payload.clear();
      put_varint(payload, job);
      payload.insert(payload.end(), error.begin(), error.end());
      if (!send_frame(fd, frame_type::job_error, payload)) _exit(14);
      continue;
    }
    if (cfg.kill_after != 0 && completed == cfg.kill_after) {
      // Die with the finished job unreported: it is deterministically
      // in flight, so the coordinator's reassign/rerun path always runs.
      ::raise(SIGKILL);
    }
    if (cfg.hang_after != 0 && completed == cfg.hang_after) {
      // Go silent with the finished job unreported — the process stays
      // alive (no EOF, no wait status), so only the coordinator's
      // assign->result watchdog can notice and recover.
      for (;;) ::pause();
    }
    if (!send_frame(fd, frame_type::result, payload)) _exit(15);
  }
}

// --- coordinator ----------------------------------------------------------

struct worker_state {
  pid_t pid = -1;
  int fd = -1;          // coordinator end of the socketpair
  int spawn_index = -1;
  frame_splitter rx;
  std::optional<std::size_t> job;  // assigned, not yet answered
  // Watchdog clock: reset at spawn, on every assignment, and on every byte
  // received. A worker holding a job whose clock goes stale is timed out.
  std::chrono::steady_clock::time_point last_activity;
};

class coordinator {
 public:
  coordinator(const job_plan& plan, const backend_spec& spec,
              run_report& rep)
      : plan_(plan), spec_(spec), jobs_(plan.job_count()), rep_(rep) {}

  void run() {
    if (jobs_ == 0) return;
    std::size_t n = spec_.workers;
    if (n == 0) {
      const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
      n = online > 0 ? static_cast<std::size_t>(online) : 1;
    }
    if (n > jobs_) n = jobs_;
    for (std::size_t i = 0; i < jobs_; ++i) pending_.push_back(i);
    for (std::size_t w = 0; w < n; ++w) spawn_worker();

    std::vector<std::uint8_t> buf(256 * 1024);
    while (done_ < jobs_) {
      // The pool empties only through a recorded failure. The replacement
      // is handed a pending job before the next poll, so it either finishes
      // that job or spends one of its attempts: respawns stay bounded.
      if (workers_.empty()) {
        spawn_worker();
        rep_.worker_failures.back().respawned = true;
      }
      for (auto& w : workers_) assign_if_idle(w);

      std::vector<pollfd> fds;
      fds.reserve(workers_.size());
      for (const auto& w : workers_) {
        fds.push_back(pollfd{w.fd, POLLIN, 0});
      }
      const int rv = ::poll(fds.data(),
                            static_cast<nfds_t>(fds.size()), 500);
      if (rv < 0 && errno != EINTR) {
        throw std::runtime_error(std::string("dispatch poll failed: ") +
                                 std::strerror(errno));
      }
      // Service sockets by pid (worker indices shift as dead ones drop).
      for (const auto& pfd : fds) {
        if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        worker_state* w = find_by_fd(pfd.fd);
        if (w == nullptr) continue;
        service(*w, buf);
      }
      reap_timed_out();
    }
    shutdown_all();
  }

 private:
  void spawn_worker() {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw std::runtime_error(std::string("socketpair failed: ") +
                               std::strerror(errno));
    }
#if defined(__APPLE__)
    const int on = 1;
    ::setsockopt(sv[0], SOL_SOCKET, SO_NOSIGPIPE, &on, sizeof on);
    ::setsockopt(sv[1], SOL_SOCKET, SO_NOSIGPIPE, &on, sizeof on);
#endif
    const int index = spawn_counter_++;
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      throw std::runtime_error(std::string("fork failed: ") +
                               std::strerror(errno));
    }
    if (pid == 0) {
      // Child: drop every other worker's socket so a sibling's EOF stays
      // visible to the coordinator the moment that sibling dies.
      for (const auto& w : workers_) ::close(w.fd);
      ::close(sv[0]);
      worker_config cfg;
      if (index == 0) {
        cfg.kill_after = spec_.kill_worker_after;
        cfg.garble_at = spec_.garble_result_at;
        cfg.hang_after = spec_.hang_worker_after;
      }
      worker_main(plan_, sv[1], cfg);  // noreturn
    }
    ::close(sv[1]);
    worker_state w;
    w.pid = pid;
    w.fd = sv[0];
    w.spawn_index = index;
    w.last_activity = std::chrono::steady_clock::now();
    workers_.push_back(std::move(w));
  }

  worker_state* find_by_fd(int fd) {
    for (auto& w : workers_) {
      if (w.fd == fd) return &w;
    }
    return nullptr;
  }

  // One job per assign frame: a worker holds at most one job, so a death
  // or a hang costs exactly that job one attempt.
  void assign_if_idle(worker_state& w) {
    if (w.job || pending_.empty()) return;
    w.job = pending_.front();
    pending_.pop_front();
    w.last_activity = std::chrono::steady_clock::now();
    std::vector<std::uint8_t> payload;
    put_varint(payload, *w.job);
    // A failed send means the worker is already dead; the job stays
    // assigned and the imminent EOF event reassigns it.
    (void)send_frame(w.fd, frame_type::assign, payload);
  }

  // One read per POLLIN. The sockets block, so a second read could wait
  // forever on a worker that sent its whole result and now waits for an
  // assign, with the watchdog stuck behind it; bytes a read leaves behind
  // wake the (level-triggered) poll again instead.
  void service(worker_state& w, std::vector<std::uint8_t>& buf) {
    ssize_t n;
    do {
      n = ::read(w.fd, buf.data(), buf.size());
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      fail_worker(w, worker_failure_kind::protocol_error,
                  std::string("socket read failed: ") + std::strerror(errno));
      return;
    }
    if (n == 0) {
      handle_eof(w);
      return;
    }
    w.last_activity = std::chrono::steady_clock::now();
    w.rx.feed(buf.data(), static_cast<std::size_t>(n));
    try {
      frame f;
      while (w.rx.pop(f)) handle_frame(w, f);
    } catch (const std::exception& e) {
      fail_worker(w, worker_failure_kind::protocol_error, e.what());
    }
  }

  void handle_frame(worker_state& w, const frame& f) {
    const std::uint8_t* p = f.payload.data();
    const std::uint8_t* end = p + f.payload.size();
    if (f.type != frame_type::result && f.type != frame_type::job_error) {
      throw wire_error("coordinator received a coordinator-only frame");
    }
    // The job this worker holds is in the plan, so this also rejects an
    // index beyond it.
    const std::uint64_t job = get_varint(p, end);
    if (w.job != job) {
      throw wire_error("result frame for job " + std::to_string(job) +
                       " this worker does not hold");
    }
    if (f.type == frame_type::job_error) {
      rep_.status[job] = job_status::failed;
      rep_.errors[job].assign(reinterpret_cast<const char*>(p),
                              static_cast<std::size_t>(end - p));
    } else if (plan_.disk) {
      decode_shard_replay(p, end, rep_.disk_replays[job]);
    } else {
      decode_memory_result(p, end, rep_.results[job]);
      rep_.results[job].sc = plan_.tasks[job].sc;
    }
    w.job.reset();
    ++done_;
  }

  void handle_eof(worker_state& w) {
    int status = 0;
    while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    // Classification: the wait status names the death, a buffered partial
    // frame upgrades a quiet exit to a truncated-message protocol error.
    worker_failure_kind kind;
    int detail = 0;
    std::string msg;
    if (WIFSIGNALED(status)) {
      kind = worker_failure_kind::killed_by_signal;
      detail = WTERMSIG(status);
      msg = "worker killed by signal " + std::to_string(detail);
    } else if (w.rx.mid_frame()) {
      kind = worker_failure_kind::protocol_error;
      detail = WIFEXITED(status) ? WEXITSTATUS(status) : 0;
      msg = "worker closed its socket mid-frame (truncated result)";
    } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
      kind = worker_failure_kind::exit_code;
      detail = WEXITSTATUS(status);
      msg = "worker exited with status " + std::to_string(detail);
    } else {
      kind = worker_failure_kind::exited_early;
      msg = "worker exited before shutdown";
    }
    record_failure(w, kind, detail, msg);
  }

  // Stall watchdog: a worker holding assigned work yet silent on its
  // socket past the deadline is as gone as a crashed one — the job-purity
  // argument that justifies rerunning a dead worker's job covers a hung
  // worker's job identically. SIGKILL it (a reply arriving after the job
  // was reassigned would corrupt slot accounting) and classify
  // timed_out so the recovery log distinguishes hangs from crashes.
  void reap_timed_out() {
    const std::int64_t ms = spec_.worker_timeout_ms > 0
                                ? spec_.worker_timeout_ms
                                : kDefaultWorkerTimeoutMs;
    const auto now = std::chrono::steady_clock::now();
    std::vector<pid_t> stale;
    for (const auto& w : workers_) {
      if (!w.job) continue;
      const auto quiet = std::chrono::duration_cast<std::chrono::milliseconds>(
                             now - w.last_activity)
                             .count();
      if (quiet >= ms) stale.push_back(w.pid);
    }
    // fail_worker erases from workers_, so resolve each pid fresh.
    for (const pid_t pid : stale) {
      for (auto& w : workers_) {
        if (w.pid != pid) continue;
        fail_worker(w, worker_failure_kind::timed_out,
                    "worker silent for " + std::to_string(ms) +
                        " ms with assigned work (hung?)");
        break;
      }
    }
  }

  void fail_worker(worker_state& w, worker_failure_kind kind,
                   const std::string& msg) {
    ::kill(w.pid, SIGKILL);
    int status = 0;
    while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    record_failure(w, kind, /*detail=*/0, msg);
  }

  void record_failure(worker_state& w, worker_failure_kind kind, int detail,
                      const std::string& msg) {
    worker_failure ev;
    ev.worker = w.spawn_index;
    ev.kind = kind;
    ev.detail = detail;
    ev.message = msg;
    // Reassign the dead worker's job: jobs are pure functions, so a rerun
    // on any worker reproduces the exact bytes this one would have sent. A
    // job on its last allowed attempt is poisoned instead.
    if (w.job) {
      const std::size_t j = *w.job;
      if (++attempts_[j] >= kMaxJobAttempts) {
        rep_.status[j] = job_status::failed;
        rep_.errors[j] =
            "job killed " + std::to_string(attempts_[j]) +
            " workers in a row (last: " + msg + ")";
        ++done_;
      } else {
        ev.reassigned_jobs.push_back(j);
        pending_.push_front(j);
      }
    }
    rep_.worker_failures.push_back(std::move(ev));
    remove_worker(w.pid);
  }

  void remove_worker(pid_t pid) {
    for (auto it = workers_.begin(); it != workers_.end(); ++it) {
      if (it->pid != pid) continue;
      ::close(it->fd);
      workers_.erase(it);
      return;
    }
  }

  void shutdown_all() {
    for (auto& w : workers_) {
      (void)send_frame(w.fd, frame_type::shutdown, {});
    }
    for (auto& w : workers_) {
      ::close(w.fd);
      int status = 0;
      while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    workers_.clear();
  }

  const job_plan& plan_;
  const backend_spec& spec_;
  const std::size_t jobs_;
  run_report& rep_;
  std::deque<std::size_t> pending_;
  std::vector<worker_state> workers_;
  std::vector<int> attempts_ = std::vector<int>(jobs_, 0);
  std::size_t done_ = 0;
  int spawn_counter_ = 0;
};

}  // namespace

void run_process(const job_plan& plan, const backend_spec& spec,
                 run_report& rep) {
  coordinator(plan, spec, rep).run();
}

}  // namespace ups::exp::dispatch

#else  // non-unix

namespace ups::exp::dispatch {

void run_process(const job_plan&, const backend_spec&, run_report&) {
  throw std::runtime_error(
      "dispatch process backend requires a unix platform "
      "(fork/socketpair); use serial here");
}

}  // namespace ups::exp::dispatch

#endif
