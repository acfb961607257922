#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

/// \file wire.hpp
/// The serve-mode framing layer: length-prefixed, CRC-checked frames over a
/// byte stream (Unix-domain or TCP socket).
///
/// Frame layout (all integers little-endian):
///   u32 payload length | u32 CRC-32 (IEEE) of payload | payload bytes
///
/// Payloads are single-line JSON messages (campaign/jsonl.hpp flat objects)
/// with a "type" key. The CRC turns any torn or corrupted stream into a hard
/// framing error — the connection is dropped, and after reconnecting the
/// worker retries its request and resends the rows of any unit whose seal
/// has not been acked (the perfect-link idiom: at-least-once delivery below,
/// exactly-once commit above, keyed by (scenario, trial) in the
/// coordinator).

namespace dualrad::serve {

/// CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) of `data`.
/// crc32("123456789") == 0xCBF43926.
[[nodiscard]] std::uint32_t crc32(std::string_view data);

/// Maximum accepted payload size. Generous for JSONL rows; a length above
/// this means the stream is garbage (or hostile) and the connection dies.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 24;  // 16 MiB

/// Serialize one frame.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Incremental frame decoder: feed() arbitrary chunks, next() yields decoded
/// payloads in order. A CRC mismatch or oversized length puts the reader
/// into a sticky corrupt state: next() returns nullopt forever and feed()
/// discards further input (once framing is lost, resynchronizing on a byte
/// stream is guesswork — any suffix could be mid-frame).
///
/// Recovery is reconnect-only, by design: a poisoned reader cannot be
/// resumed or reset — the caller must drop the connection and build a fresh
/// FrameReader for the replacement socket (the worker's retransmit dedup
/// makes this lossless). recv_frame enforces the contract: calling it with
/// an already-poisoned reader throws std::logic_error rather than spinning
/// forever on a reader that can never produce a frame.
class FrameReader {
 public:
  void feed(const char* data, std::size_t size) {
    if (corrupt_) return;  // poisoned: drop input, don't grow the buffer
    buffer_.append(data, size);
  }
  void feed(std::string_view data) { feed(data.data(), data.size()); }

  /// Next complete, CRC-valid payload; nullopt if more bytes are needed or
  /// the stream is corrupt.
  [[nodiscard]] std::optional<std::string> next();

  [[nodiscard]] bool corrupt() const { return corrupt_; }

  /// Why the reader poisoned itself (empty while healthy).
  [[nodiscard]] const std::string& corrupt_reason() const {
    return corrupt_reason_;
  }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
  bool corrupt_ = false;
  std::string corrupt_reason_;
};

// --- blocking socket I/O -----------------------------------------------------

/// Send one frame; returns false on any send error (EPIPE included — SIGPIPE
/// is suppressed). This is also the wire fault-injection seam: when a
/// faultline::FaultInjector is installed, an injected Drop/Partial/Reset
/// reports failure (the caller tears the connection down and retransmits
/// after reconnecting), Corrupt flips a CRC byte in flight (the receiver's
/// FrameReader poisons itself), and Delay sleeps before delivering.
[[nodiscard]] bool send_frame(int fd, std::string_view payload);

/// Receive the next frame. Blocks up to `timeout_ms` (0 = forever); returns:
///  - a payload on success,
///  - nullopt with *timed_out = true on timeout,
///  - nullopt with *timed_out = false on EOF / error / a stream that just
///    turned corrupt (the caller must drop the connection), or once
///    `cancel_fd` (e.g. an eventfd; -1 = none) becomes readable.
/// Throws std::logic_error if `reader` was ALREADY poisoned on entry: a
/// corrupt reader can never yield another frame, so looping on it is a
/// caller bug (reconnect with a fresh FrameReader instead).
[[nodiscard]] std::optional<std::string> recv_frame(int fd, FrameReader& reader,
                                                    int timeout_ms,
                                                    bool* timed_out,
                                                    int cancel_fd = -1);

// --- endpoints ---------------------------------------------------------------
//
// An endpoint string containing '/' is a Unix-domain socket path; otherwise
// it is host:port (or :port / bare port for 127.0.0.1). All functions return
// a connected/listening fd or -1 (with errno set). accept_connection blocks
// up to `timeout_ms` (0 = forever) and gives up with -1 once `cancel_fd`
// (-1 = none) becomes readable.

[[nodiscard]] int listen_endpoint(const std::string& endpoint);
[[nodiscard]] int connect_endpoint(const std::string& endpoint);
[[nodiscard]] int accept_connection(int listen_fd, int timeout_ms,
                                    bool* timed_out, int cancel_fd = -1);

}  // namespace dualrad::serve
