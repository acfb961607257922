#include "core/trace.hpp"

/// \file trace.cpp
/// The trace codec. LEB128 varints; signed fields (origin can
/// be -1, reach lists are unsorted) go through zigzag. Node id lists that
/// the engines emit in ascending order (senders, reception touchers) are
/// stored as unsigned deltas off the previous id. Silence receptions are not
/// encoded at all — decode initializes every node to silence — which is
/// where the compression wins: at sparse densities almost every node hears
/// silence almost every round.

namespace dualrad {

namespace {

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

[[nodiscard]] std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

[[nodiscard]] std::uint64_t get_varint(const std::uint8_t*& p,
                                       const std::uint8_t* end) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  while (true) {
    DUALRAD_REQUIRE(p != end, "truncated compressed trace");
    const std::uint8_t byte = *p++;
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
    DUALRAD_REQUIRE(shift < 64, "malformed varint in compressed trace");
  }
}

void put_message(std::vector<std::uint8_t>& out, const Message& m) {
  put_varint(out, zigzag(m.token));
  put_varint(out, zigzag(m.origin));
  put_varint(out, zigzag(m.round_tag));
  put_varint(out, m.payload);
}

/// A list length. Every entry takes at least one byte, so a count beyond
/// the bytes left is malformed — checked before anything is sized by it.
[[nodiscard]] std::uint64_t get_count(const std::uint8_t*& p,
                                      const std::uint8_t* end) {
  const std::uint64_t count = get_varint(p, end);
  DUALRAD_REQUIRE(count <= static_cast<std::uint64_t>(end - p),
                  "compressed trace list longer than its round");
  return count;
}

/// The id after `prev` in a delta-encoded id list. The sum wraps in
/// unsigned arithmetic, so a hostile delta cannot overflow; the result must
/// name one of the n nodes.
[[nodiscard]] NodeId node_at(NodeId prev, std::uint64_t delta, NodeId n) {
  const std::uint64_t id = static_cast<std::uint64_t>(prev) + delta;
  DUALRAD_REQUIRE(id < static_cast<std::uint64_t>(n),
                  "compressed trace node id out of range");
  return static_cast<NodeId>(id);
}

[[nodiscard]] Message get_message(const std::uint8_t*& p,
                                  const std::uint8_t* end) {
  Message m;
  m.token = static_cast<TokenId>(unzigzag(get_varint(p, end)));
  m.origin = static_cast<ProcessId>(unzigzag(get_varint(p, end)));
  m.round_tag = static_cast<Round>(unzigzag(get_varint(p, end)));
  m.payload = get_varint(p, end);
  return m;
}

}  // namespace

void Trace::append_compressed(const RoundRecord& record) {
  blob_offsets.push_back(blob.size());
  put_varint(blob, static_cast<std::uint64_t>(record.round));

  put_varint(blob, record.senders.size());
  std::int64_t prev = 0;
  for (const SenderRecord& s : record.senders) {
    // Senders are emitted in ascending node order by both engines.
    put_varint(blob, static_cast<std::uint64_t>(s.node - prev));
    prev = s.node;
    put_message(blob, s.message);
    put_varint(blob, s.reached.size());
    std::int64_t rprev = 0;
    for (const NodeId v : s.reached) {
      put_varint(blob, zigzag(v - rprev));
      rprev = v;
    }
  }

  std::uint64_t touched = 0;
  for (const Reception& r : record.receptions) {
    if (!r.is_silence()) ++touched;
  }
  put_varint(blob, touched);
  prev = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(record.receptions.size()); ++v) {
    const Reception& r = record.receptions[static_cast<std::size_t>(v)];
    if (r.is_silence()) continue;
    put_varint(blob, static_cast<std::uint64_t>(v - prev));
    prev = v;
    blob.push_back(static_cast<std::uint8_t>(r.kind));
    if (r.is_message()) put_message(blob, *r.message);
  }
}

void Trace::decode_compressed(std::size_t index, NodeId n,
                              RoundRecord& out) const {
  DUALRAD_REQUIRE(index < blob_offsets.size(),
                  "compressed round index out of range");
  const std::uint64_t begin = blob_offsets[index];
  const std::uint64_t stop =
      index + 1 < blob_offsets.size() ? blob_offsets[index + 1] : blob.size();
  DUALRAD_REQUIRE(begin <= stop && stop <= blob.size(),
                  "compressed round offsets out of range");
  const std::uint8_t* p = blob.data() + begin;
  const std::uint8_t* const end = blob.data() + stop;

  out.round = static_cast<Round>(get_varint(p, end));

  const std::uint64_t sender_count = get_count(p, end);
  out.senders.clear();
  out.senders.resize(sender_count);
  NodeId prev = 0;
  for (SenderRecord& s : out.senders) {
    prev = node_at(prev, get_varint(p, end), n);
    s.node = prev;
    s.message = get_message(p, end);
    const std::uint64_t reach_count = get_count(p, end);
    s.reached.clear();
    s.reached.reserve(reach_count);
    NodeId rprev = 0;
    for (std::uint64_t i = 0; i < reach_count; ++i) {
      rprev = node_at(
          rprev, static_cast<std::uint64_t>(unzigzag(get_varint(p, end))), n);
      s.reached.push_back(rprev);
    }
  }

  out.receptions.assign(static_cast<std::size_t>(n), Reception::silence());
  const std::uint64_t touched = get_count(p, end);
  prev = 0;
  for (std::uint64_t i = 0; i < touched; ++i) {
    prev = node_at(prev, get_varint(p, end), n);
    DUALRAD_REQUIRE(p != end, "truncated compressed trace");
    const auto kind = static_cast<ReceptionKind>(*p++);
    Reception& r = out.receptions[static_cast<std::size_t>(prev)];
    if (kind == ReceptionKind::Message) {
      r = Reception::of(get_message(p, end));
    } else {
      DUALRAD_REQUIRE(kind == ReceptionKind::Collision,
                      "malformed reception kind in compressed trace");
      r = Reception::collision();
    }
  }
  DUALRAD_REQUIRE(p == end, "trailing bytes in compressed trace round");
}

}  // namespace dualrad
