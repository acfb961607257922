#include "serve/wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "serve/faultline.hpp"

namespace dualrad::serve {

namespace {

[[nodiscard]] std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

[[nodiscard]] std::uint32_t get_u32(const char* p) {
  const auto b = [&](int i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

/// Wait until `fd` is readable. Returns 1 ready, 0 timeout, -1 error/EOF or
/// `cancel_fd` readable (poll ignores a negative cancel_fd).
[[nodiscard]] int wait_readable(int fd, int timeout_ms, int cancel_fd) {
  struct pollfd pfd[2]{};
  pfd[0].fd = fd;
  pfd[0].events = POLLIN;
  pfd[1].fd = cancel_fd;
  pfd[1].events = POLLIN;
  for (;;) {
    const int rc = ::poll(pfd, 2, timeout_ms <= 0 ? -1 : timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    if (rc > 0 && pfd[1].revents != 0) return -1;
    return rc;
  }
}

[[nodiscard]] int set_cloexec(int fd) {
  if (fd < 0) return fd;
  // Best effort; a leaked fd into a forked worker is harmless.
  (void)::fcntl(fd, F_SETFD, FD_CLOEXEC);
  return fd;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : data) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string encode_frame(std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + 8);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload));
  out.append(payload);
  return out;
}

std::optional<std::string> FrameReader::next() {
  if (corrupt_) return std::nullopt;
  // Reclaim consumed prefix lazily, once it dominates the buffer.
  if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 8) return std::nullopt;
  const char* head = buffer_.data() + consumed_;
  const std::uint32_t length = get_u32(head);
  if (length > kMaxFramePayload) {
    corrupt_ = true;
    corrupt_reason_ = "frame length " + std::to_string(length) +
                      " exceeds the " + std::to_string(kMaxFramePayload) +
                      "-byte payload limit";
    buffer_.clear();
    consumed_ = 0;
    return std::nullopt;
  }
  if (available < 8 + static_cast<std::size_t>(length)) return std::nullopt;
  const std::uint32_t expected = get_u32(head + 4);
  std::string payload(head + 8, length);
  if (crc32(payload) != expected) {
    corrupt_ = true;
    corrupt_reason_ = "frame CRC mismatch (stream torn or corrupted)";
    buffer_.clear();
    consumed_ = 0;
    return std::nullopt;
  }
  consumed_ += 8 + static_cast<std::size_t>(length);
  return payload;
}

namespace {

[[nodiscard]] bool send_bytes(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool send_frame(int fd, std::string_view payload) {
  std::string frame = encode_frame(payload);
  if (FaultInjector* injector = fault_injector()) {
    int delay_ms = 0;
    switch (injector->next_wire(&delay_ms)) {
      case WireFault::None:
        break;
      case WireFault::Drop:
        // The frame never leaves. Reporting failure (rather than silently
        // blackholing) models a dead socket: the caller tears the connection
        // down and retransmits after reconnecting instead of blocking a full
        // reply timeout on a frame that will never be answered.
        return false;
      case WireFault::Corrupt:
        // Flip one CRC bit in flight; the receiver's FrameReader poisons
        // itself and the connection dies on that end.
        frame[4] = static_cast<char>(frame[4] ^ 0x01);
        break;
      case WireFault::Partial: {
        // Torn write: half a frame reaches the peer, then the link dies.
        // The receiver discards the fragment when the connection drops.
        (void)send_bytes(fd, frame.data(), frame.size() / 2);
        return false;
      }
      case WireFault::Reset:
        ::shutdown(fd, SHUT_RDWR);
        return false;
      case WireFault::Delay:
        // Late delivery. Bounded by the plan's delay_ms. lint: backoff-ok
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        break;
    }
  }
  return send_bytes(fd, frame.data(), frame.size());
}

std::optional<std::string> recv_frame(int fd, FrameReader& reader,
                                      int timeout_ms, bool* timed_out,
                                      int cancel_fd) {
  if (reader.corrupt()) {
    // A poisoned reader can never produce another frame; a caller that loops
    // on it would hang silently. Recovery is reconnect-only: drop the
    // connection and build a fresh FrameReader.
    throw std::logic_error(
        "dualrad: recv_frame on a poisoned FrameReader (" +
        reader.corrupt_reason() +
        "); a corrupt stream cannot be resumed — reconnect with a fresh "
        "FrameReader");
  }
  if (timed_out != nullptr) *timed_out = false;
  for (;;) {
    if (auto payload = reader.next()) return payload;
    if (reader.corrupt()) return std::nullopt;
    const int ready = wait_readable(fd, timeout_ms, cancel_fd);
    if (ready == 0) {
      if (timed_out != nullptr) *timed_out = true;
      return std::nullopt;
    }
    if (ready < 0) return std::nullopt;
    char chunk[16384];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) return std::nullopt;  // EOF
    if (n < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    reader.feed(chunk, static_cast<std::size_t>(n));
  }
}

namespace {

[[nodiscard]] bool is_unix_endpoint(const std::string& endpoint) {
  return endpoint.find('/') != std::string::npos;
}

[[nodiscard]] bool split_host_port(const std::string& endpoint,
                                   std::string& host, std::uint16_t& port) {
  const std::size_t colon = endpoint.rfind(':');
  std::string port_str;
  if (colon == std::string::npos) {
    host = "127.0.0.1";
    port_str = endpoint;
  } else {
    host = colon == 0 ? "127.0.0.1" : endpoint.substr(0, colon);
    port_str = endpoint.substr(colon + 1);
  }
  if (port_str.empty()) return false;
  unsigned long value = 0;
  for (const char c : port_str) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<unsigned long>(c - '0');
    if (value > 65535) return false;
  }
  port = static_cast<std::uint16_t>(value);
  return true;
}

[[nodiscard]] bool fill_unix_addr(const std::string& path, sockaddr_un& addr) {
  if (path.size() + 1 > sizeof(addr.sun_path)) return false;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

int listen_endpoint(const std::string& endpoint) {
  if (is_unix_endpoint(endpoint)) {
    sockaddr_un addr{};
    if (!fill_unix_addr(endpoint, addr)) {
      errno = ENAMETOOLONG;
      return -1;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    ::unlink(endpoint.c_str());  // stale socket from a dead coordinator
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
        ::listen(fd, 64) < 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      return -1;
    }
    return set_cloexec(fd);
  }
  std::string host;
  std::uint16_t port = 0;
  if (!split_host_port(endpoint, host, port)) {
    errno = EINVAL;
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    errno = EINVAL;
    return -1;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 64) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  return set_cloexec(fd);
}

int connect_endpoint(const std::string& endpoint) {
  if (is_unix_endpoint(endpoint)) {
    sockaddr_un addr{};
    if (!fill_unix_addr(endpoint, addr)) {
      errno = ENAMETOOLONG;
      return -1;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
        0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      return -1;
    }
    return set_cloexec(fd);
  }
  std::string host;
  std::uint16_t port = 0;
  if (!split_host_port(endpoint, host, port)) {
    errno = EINVAL;
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    errno = EINVAL;
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  return set_cloexec(fd);
}

int accept_connection(int listen_fd, int timeout_ms, bool* timed_out,
                      int cancel_fd) {
  if (timed_out != nullptr) *timed_out = false;
  const int ready = wait_readable(listen_fd, timeout_ms, cancel_fd);
  if (ready == 0) {
    if (timed_out != nullptr) *timed_out = true;
    return -1;
  }
  if (ready < 0) return -1;
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return set_cloexec(fd);
    if (errno != EINTR) return -1;
  }
}

}  // namespace dualrad::serve
