#pragma once

#include <vector>

#include "core/message.hpp"
#include "core/reception.hpp"
#include "core/types.hpp"

/// \file trace.hpp
/// Execution traces. `TraceLevel::Compressed` records, per round, the
/// senders, each sender's realized reach (reliable + adversary-chosen
/// unreliable), and the reception of every node — enough to replay and
/// audit an execution — delta/varint-encoded into one byte blob: sender and
/// toucher node ids are stored as deltas off the previous id (both lists are
/// ascending), reach lists as zigzag deltas, and silence receptions — the
/// overwhelming majority at sparse densities — are omitted entirely because
/// silence is the decode default. Readers decode one round at a time into a
/// scratch RoundRecord, so memory scales with arrivals, not with
/// nodes x rounds, which is what lets audits run past 10^4 nodes inside the
/// CI memory gate. Per-round sender/collision counts live in
/// obs::RoundTelemetry, not here.

namespace dualrad {

enum class TraceLevel : std::uint8_t { None, Compressed };

struct SenderRecord {
  NodeId node = kInvalidNode;
  Message message{};
  /// Nodes this message reached (excluding the sender itself, which is always
  /// reached), reliable and unreliable combined.
  std::vector<NodeId> reached{};

  friend bool operator==(const SenderRecord&, const SenderRecord&) = default;
};

struct RoundRecord {
  Round round = 0;
  std::vector<SenderRecord> senders{};
  /// reception[node] — what the process at each node received. For sleeping
  /// processes (async start, not yet activated) this is what they *would*
  /// have received; a Message reception is what activated them.
  std::vector<Reception> receptions{};

  friend bool operator==(const RoundRecord&, const RoundRecord&) = default;
};

struct Trace {
  TraceLevel level = TraceLevel::None;

  /// Delta/varint-encoded round records, one byte range per round.
  /// `blob_offsets[i]` is where round i's encoding starts (its end is the
  /// next offset, or blob.size() for the last round). Every engine builds
  /// the same scratch RoundRecord and encodes it through append_compressed,
  /// so the blob is bit-identical across engines.
  std::vector<std::uint8_t> blob{};
  std::vector<std::uint64_t> blob_offsets{};

  [[nodiscard]] std::size_t compressed_rounds() const {
    return blob_offsets.size();
  }
  /// Encode one round record onto the blob.
  void append_compressed(const RoundRecord& record);
  /// Decode round `index` (0-based) into `out`. `n` sizes out.receptions;
  /// nodes without an encoded reception decode to silence. Throws
  /// std::invalid_argument on a malformed blob, including any sender,
  /// reach or reception id outside [0, n).
  void decode_compressed(std::size_t index, NodeId n, RoundRecord& out) const;
};

}  // namespace dualrad
