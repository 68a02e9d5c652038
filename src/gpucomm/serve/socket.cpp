#include "gpucomm/serve/socket.hpp"

#if defined(__unix__) || defined(__APPLE__)

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gpucomm/serve/core.hpp"
#include "gpucomm/serve/io.hpp"

namespace gpucomm::serve {

namespace {

/// Outbound buffer cap per connection: a client that stops reading while
/// queueing work gets dropped instead of growing the buffer without bound.
constexpr std::size_t kMaxConnOutbuf = 64u << 20;
/// How long drain waits for connections to flush before force-closing.
constexpr std::chrono::seconds kDrainGrace{10};

// SIGTERM handling via the self-pipe trick: the handler only sets a flag
// and pokes the poll loop's wake pipe (both async-signal-safe). The fds
// are plain ints written before sigaction() installs the handler.
volatile std::sig_atomic_t g_sigterm = 0;
int g_sigterm_wake_fd = -1;

void on_sigterm(int) {
  g_sigterm = 1;
  if (g_sigterm_wake_fd >= 0) {
    const char b = 1;
    (void)!::write(g_sigterm_wake_fd, &b, 1);
  }
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// The write-side state a connection shares with its in-flight jobs. Workers
/// (via the OrderedWriter sink) append framed lines under the mutex; only
/// the poll thread writes to the fd. `closed` flips when the fd is gone —
/// late deliveries from in-flight jobs are then discarded, never dangling.
struct ConnOut {
  std::mutex mu;
  std::string buf;
  bool closed = false;
  bool overflowed = false;  // buf exceeded kMaxConnOutbuf
  int wake_fd = -1;
};

/// Poll-thread-only connection state.
struct Conn {
  int fd = -1;
  LineSplitter splitter;
  std::shared_ptr<ConnOut> out;
  std::shared_ptr<OrderedWriter> writer;
  std::uint64_t seq = 0;       // request lines handed to the core
  bool input_done = false;     // EOF, shutdown, or abuse: no more reads
  bool abusive = false;        // counts as dropped, not a clean close

  explicit Conn(int fd_in, std::size_t max_line_bytes, int wake_fd)
      : fd(fd_in), splitter(max_line_bytes), out(std::make_shared<ConnOut>()) {
    out->wake_fd = wake_fd;
    const std::shared_ptr<ConnOut> sink_out = out;
    writer = std::make_shared<OrderedWriter>([sink_out](const std::string& framed) {
      const std::lock_guard<std::mutex> lock(sink_out->mu);
      if (sink_out->closed) return;
      sink_out->buf.append(framed);
      if (sink_out->buf.size() > kMaxConnOutbuf) sink_out->overflowed = true;
      const char b = 1;
      (void)!::write(sink_out->wake_fd, &b, 1);
    });
  }
};

}  // namespace

bool serve_socket(const std::string& path, const ServeOptions& options,
                  ServeResult& result, std::string& error) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    error = "socket path too long";
    return false;
  }
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  // Backlog scales with the worker pool: a connect storm should queue at
  // the kernel, not get ECONNREFUSED while workers could still absorb it.
  const int backlog =
      std::min<int>(SOMAXCONN, std::max(16, 4 * std::max(1, options.jobs)));
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listener, backlog) != 0 || !set_nonblocking(listener)) {
    error = path + ": " + std::strerror(errno);
    ::close(listener);
    return false;
  }
  int wake[2] = {-1, -1};
  if (::pipe(wake) != 0 || !set_nonblocking(wake[0]) || !set_nonblocking(wake[1])) {
    error = std::string("pipe: ") + std::strerror(errno);
    if (wake[0] >= 0) ::close(wake[0]);
    if (wake[1] >= 0) ::close(wake[1]);
    ::close(listener);
    ::unlink(path.c_str());
    return false;
  }

  g_sigterm = 0;
  g_sigterm_wake_fd = wake[1];
  struct sigaction sa {};
  sa.sa_handler = on_sigterm;
  sigemptyset(&sa.sa_mask);
  struct sigaction old_sa {};
  ::sigaction(SIGTERM, &sa, &old_sa);

  // One engine for the server's lifetime: caches, counters and workers are
  // shared across every connection.
  ServerCore core(options, /*always_pool=*/true);

  std::vector<std::unique_ptr<Conn>> conns;
  std::uint64_t lines_written = 0;  // accumulated from reaped connections
  bool accepting = true;
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline{};
  std::vector<pollfd> fds;
  std::vector<Conn*> fd_conns;
  char rbuf[65536];

  for (;;) {
    if (!draining && (core.shutdown_rendered() || g_sigterm != 0)) {
      draining = true;
      drain_deadline = std::chrono::steady_clock::now() + kDrainGrace;
      if (accepting) {
        accepting = false;
        ::close(listener);
        ::unlink(path.c_str());
      }
      // Stop reading everywhere; admitted work finishes and flushes below.
      for (auto& c : conns) c->input_done = true;
    }

    // Reap connections that are finished (all requests answered and
    // flushed) or whose fd died under them.
    for (auto it = conns.begin(); it != conns.end();) {
      Conn& c = **it;
      // Load order matters: once input_done is set, `seq` is final, so
      // written() == seq means no further delivery can arrive — reading the
      // buffer *after* that makes "empty" mean "everything flushed". The
      // opposite order races a delivery landing between the two loads and
      // closes the fd with rendered responses still in the buffer.
      const bool all_delivered = c.input_done && c.writer->written() == c.seq;
      bool flushed;
      bool dead;
      {
        const std::lock_guard<std::mutex> lock(c.out->mu);
        flushed = c.out->buf.empty();
        dead = c.out->closed || c.out->overflowed;
      }
      const bool done = all_delivered && flushed;
      if (!done && !dead) {
        ++it;
        continue;
      }
      {
        const std::lock_guard<std::mutex> lock(c.out->mu);
        c.out->closed = true;  // discard any late in-flight deliveries
      }
      ::close(c.fd);
      if (dead || c.abusive) {
        core.note_connection_dropped();
      } else {
        core.note_connection_closed();
      }
      lines_written += c.writer->written();
      it = conns.erase(it);
    }
    if (draining) {
      if (conns.empty()) break;
      if (std::chrono::steady_clock::now() >= drain_deadline) {
        // Grace expired: force-close whatever refuses to flush.
        for (auto& c : conns) {
          const std::lock_guard<std::mutex> lock(c->out->mu);
          c->out->closed = true;
        }
        for (auto& c : conns) {
          ::close(c->fd);
          core.note_connection_dropped();
          lines_written += c->writer->written();
        }
        conns.clear();
        break;
      }
    }

    fds.clear();
    fd_conns.clear();
    fds.push_back(pollfd{wake[0], POLLIN, 0});
    if (accepting) fds.push_back(pollfd{listener, POLLIN, 0});
    for (auto& c : conns) {
      short events = 0;
      if (!c->input_done) events |= POLLIN;
      {
        const std::lock_guard<std::mutex> lock(c->out->mu);
        if (!c->out->buf.empty()) events |= POLLOUT;
      }
      if (events == 0) continue;  // waiting on in-flight work; wake pipe fires
      fds.push_back(pollfd{c->fd, events, 0});
      fd_conns.push_back(c.get());
    }
    const int timeout_ms = draining ? 50 : 500;
    const int n = ::poll(fds.data(), fds.size(), timeout_ms);
    if (n < 0 && errno != EINTR) {
      error = std::string("poll: ") + std::strerror(errno);
      break;
    }
    if (n <= 0) continue;

    std::size_t idx = 0;
    if (fds[idx].revents & POLLIN) {
      char drainbuf[256];
      while (::read(wake[0], drainbuf, sizeof(drainbuf)) > 0) {
      }
    }
    ++idx;
    if (accepting) {
      if (fds[idx].revents & (POLLIN | POLLERR)) {
        for (;;) {
          const int fd = ::accept(listener, nullptr, nullptr);
          if (fd < 0) break;  // EAGAIN/EINTR: next poll round
          if (!set_nonblocking(fd)) {
            ::close(fd);
            continue;
          }
          conns.push_back(
              std::make_unique<Conn>(fd, options.max_line_bytes, wake[1]));
          core.note_connection_accepted();
        }
      }
      ++idx;
    }
    for (std::size_t k = 0; idx + k < fds.size(); ++k) {
      Conn& c = *fd_conns[k];
      const short revents = fds[idx + k].revents;
      if (revents & POLLERR) {
        const std::lock_guard<std::mutex> lock(c.out->mu);
        c.out->closed = true;
        continue;
      }
      if (revents & (POLLIN | POLLHUP)) {
        for (;;) {
          const long got = ::read(c.fd, rbuf, sizeof(rbuf));
          if (got > 0) {
            std::vector<LineSplitter::Line> lines;
            c.splitter.feed(rbuf, static_cast<std::size_t>(got), lines);
            for (LineSplitter::Line& line : lines) {
              if (c.input_done) break;  // shutdown/abuse mid-batch
              if (line.overflow) {
                // Protocol abuse on a shared transport: answer once, then
                // drop the connection (the stdio transport only errors —
                // there the peer is the sole client).
                core.answer_line_overflow(c.writer, c.seq++);
                c.input_done = true;
                c.abusive = true;
                break;
              }
              if (line.text.find_first_not_of(" \t\r") == std::string::npos) {
                continue;
              }
              if (core.handle_line(c.writer, c.seq++, line.text,
                                   /*deferred_controls=*/true) ==
                  ServerCore::LineAction::kShutdown) {
                c.input_done = true;
              }
            }
            if (c.input_done) break;
            continue;
          }
          if (got == 0) {
            // EOF: getline semantics for a final unterminated fragment.
            std::string partial = c.splitter.take_partial();
            if (!partial.empty() &&
                partial.find_first_not_of(" \t\r") != std::string::npos) {
              core.handle_line(c.writer, c.seq++, partial,
                               /*deferred_controls=*/true);
            }
            c.input_done = true;
            break;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
          const std::lock_guard<std::mutex> lock(c.out->mu);
          c.out->closed = true;
          break;
        }
      }
      // Flush whatever is buffered (also handles lines delivered while this
      // round was reading). Only the poll thread touches the fd.
      {
        const std::lock_guard<std::mutex> lock(c.out->mu);
        if (!c.out->closed && !c.out->buf.empty()) {
          const long put =
              write_some(c.fd, c.out->buf.data(), c.out->buf.size(), true);
          if (put < 0) {
            c.out->closed = true;
          } else if (put > 0) {
            c.out->buf.erase(0, static_cast<std::size_t>(put));
          }
        }
      }
    }
  }

  if (accepting) {
    ::close(listener);
    ::unlink(path.c_str());
  }
  core.drain();
  ::sigaction(SIGTERM, &old_sa, nullptr);
  g_sigterm_wake_fd = -1;
  ::close(wake[0]);
  ::close(wake[1]);

  result.shutdown = core.shutdown_rendered();
  result.answered = static_cast<std::size_t>(lines_written);
  result.counters = core.counters();
  result.latency = core.latency_stats();
  return error.empty();
}

}  // namespace gpucomm::serve

#else  // no AF_UNIX

namespace gpucomm::serve {

bool serve_socket(const std::string& path, const ServeOptions& options,
                  ServeResult& result, std::string& error) {
  (void)path;
  (void)options;
  (void)result;
  error = "--serve-socket is not supported on this platform";
  return false;
}

}  // namespace gpucomm::serve

#endif
