// POSIX stream-socket helpers for the selection service (src/server/).
//
// RAII fd ownership, EINTR-safe full-buffer send/receive, AF_UNIX
// listen/connect, and a socketpair factory for in-process tests.  The IO
// idiom follows buffered network layers (cf. Galois' buffered net code):
// writers assemble a whole message into one contiguous buffer and flush it
// with a single send loop; readers pull large chunks into a staging buffer
// and serve exact-length (or line) requests out of it — syscalls per message
// stay O(1) no matter how small the frames are, and a frame is never
// half-written from the peer's point of view unless the connection died.
//
// Everything here reports failure by return value (invalid Fd / false), not
// exceptions: the server treats a dead peer as routine, and the helpers are
// used on paths where unwinding would skip cleanup of in-flight requests.
#pragma once

#include <cstddef>
#include <string>
#include <utility>

namespace repro::util {

// Owning file descriptor.  Move-only; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) reset(other.release());
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset(int fd = -1);

  // ::shutdown wrappers (errors ignored: the peer may already be gone).
  // Shutting down the read side unblocks a reader thread parked in recv.
  void shutdown_read() const;
  void shutdown_write() const;

 private:
  int fd_ = -1;
};

// Sends exactly n bytes (looping over partial writes, retrying EINTR).
// False when the peer is gone.  SIGPIPE is suppressed per call.
bool send_all(int fd, const void* data, std::size_t n);

// Receives exactly n bytes; false on EOF or error before n arrived.
bool recv_all(int fd, void* data, std::size_t n);

// AF_UNIX stream endpoints.  All return an invalid Fd on failure with errno
// set.  unix_listen removes a stale socket file at `path` first and queues
// up to 16 pending connections.
Fd unix_listen(const std::string& path);
Fd unix_connect(const std::string& path);
// Blocking accept; invalid Fd on error (including the listener being shut
// down or closed — the accept loop treats that as "stop").
Fd accept_connection(int listen_fd);
// Connected AF_UNIX stream pair (first, second); both invalid on failure.
std::pair<Fd, Fd> socket_pair();

// Chunked reader: recv()s in large blocks, serves exact-length and
// line-delimited reads from the staging buffer.  Not thread-safe (one
// reader per connection by construction).
class BufferedReader {
 public:
  explicit BufferedReader(int fd) : fd_(fd) {}

  // Blocks until n bytes are available and copies them out; false on
  // EOF/error before n bytes arrived.
  bool read_exact(void* out, std::size_t n);
  // Reads up to and including '\n', which is stripped (as is a preceding
  // '\r').  False on EOF with no pending data, or when the line exceeds
  // max_len bytes (protocol abuse — the caller should drop the peer).
  bool read_line(std::string& out, std::size_t max_len);
  // Blocks for the next byte without consuming it; false on EOF/error.
  bool peek_byte(unsigned char& b);

  // Already-received bytes waiting in the buffer (never blocks).
  std::size_t buffered() const { return buf_.size() - pos_; }
  // Copies the next n buffered bytes without consuming them; false when
  // fewer than n are buffered.  Never calls recv — pair with buffered() to
  // decide whether more input is ready without risking a block.
  bool peek_buffered(void* out, std::size_t n) const;

 private:
  bool fill_some();  // one recv; false on EOF/error

  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
};

}  // namespace repro::util
