#include "util/socket.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace repro::util {
namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

// MSG_NOSIGNAL keeps a dead peer from raising SIGPIPE out of send(); the
// write loop sees EPIPE and reports false instead.
constexpr int kSendFlags = MSG_NOSIGNAL;

bool fill_sockaddr(const std::string& path, sockaddr_un& addr) {
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) return false;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

void Fd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

void Fd::shutdown_read() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Fd::shutdown_write() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

bool send_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t sent = ::send(fd, p, n, kSendFlags);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (sent == 0) return false;
    p += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return true;
}

bool recv_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t got = ::recv(fd, p, n, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // EOF mid-read
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

Fd unix_listen(const std::string& path) {
  sockaddr_un addr;
  if (!fill_sockaddr(path, addr)) {
    errno = EINVAL;
    return Fd();
  }
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return Fd();
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Fd();
  }
  if (::listen(fd.get(), 16) != 0) return Fd();
  return fd;
}

Fd unix_connect(const std::string& path) {
  sockaddr_un addr;
  if (!fill_sockaddr(path, addr)) {
    errno = EINVAL;
    return Fd();
  }
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return Fd();
  for (;;) {
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    if (errno != EINTR) return Fd();
  }
}

Fd accept_connection(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return Fd(fd);
    if (errno != EINTR) return Fd();
  }
}

std::pair<Fd, Fd> socket_pair() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return {Fd(), Fd()};
  }
  return {Fd(fds[0]), Fd(fds[1])};
}

bool BufferedReader::fill_some() {
  // Compact lazily: only once the consumed prefix dominates the buffer.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  const std::size_t old = buf_.size();
  buf_.resize(old + kReadChunk);
  for (;;) {
    const ssize_t got = ::recv(fd_, buf_.data() + old, kReadChunk, 0);
    if (got > 0) {
      buf_.resize(old + static_cast<std::size_t>(got));
      return true;
    }
    buf_.resize(old);
    if (got < 0 && errno == EINTR) {
      buf_.resize(old + kReadChunk);
      continue;
    }
    return false;  // EOF or hard error
  }
}

bool BufferedReader::read_exact(void* out, std::size_t n) {
  while (buf_.size() - pos_ < n) {
    if (!fill_some()) return false;
  }
  std::memcpy(out, buf_.data() + pos_, n);
  pos_ += n;
  return true;
}

bool BufferedReader::read_line(std::string& out, std::size_t max_len) {
  // Progress is tracked as an offset from pos_, not an absolute index:
  // fill_some() may compact the buffer and shift pos_ under us.
  std::size_t scanned = 0;
  for (;;) {
    std::size_t scan = pos_ + scanned;
    while (scan < buf_.size()) {
      if (buf_[scan] == '\n') {
        out.assign(buf_, pos_, scan - pos_);
        if (!out.empty() && out.back() == '\r') out.pop_back();
        pos_ = scan + 1;
        return true;
      }
      ++scan;
      ++scanned;
    }
    if (scanned > max_len) return false;  // unbounded line: drop peer
    if (!fill_some()) return false;
  }
}

bool BufferedReader::peek_buffered(void* out, std::size_t n) const {
  if (buf_.size() - pos_ < n) return false;
  std::memcpy(out, buf_.data() + pos_, n);
  return true;
}

bool BufferedReader::peek_byte(unsigned char& b) {
  while (buf_.size() == pos_) {
    if (!fill_some()) return false;
  }
  b = static_cast<unsigned char>(buf_[pos_]);
  return true;
}

}  // namespace repro::util
