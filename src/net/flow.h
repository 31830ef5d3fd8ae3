// Flow abstraction: 5-tuple keys, per-flow packet aggregation, and a flow
// table with idle timeout. Context builders (src/context) consume the
// Flow objects produced here.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/packet.h"

namespace netfm {

/// Directionless 5-tuple. `canonical()` orders the endpoints so both
/// directions of a conversation map to the same key.
struct FiveTuple {
  Ipv4Addr src_ip;
  Ipv4Addr dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;

  bool operator==(const FiveTuple&) const = default;

  /// Key with (ip,port) pairs sorted so A->B and B->A collide.
  FiveTuple canonical() const noexcept;

  /// "10.0.0.1:1234 -> 10.0.0.2:80 tcp"
  std::string to_string() const;

  /// Extracts from a parsed packet (IPv4 only; nullopt otherwise).
  static std::optional<FiveTuple> from_packet(const ParsedPacket& pkt) noexcept;
};

struct FiveTupleHash {
  std::size_t operator()(const FiveTuple& t) const noexcept;
};

/// One packet's contribution to a flow, with the metadata tokenizers need.
struct FlowPacket {
  double timestamp = 0.0;
  bool client_to_server = true;
  std::size_t frame_size = 0;
  Bytes frame;  // full frame bytes (owned; flows outlive the capture buffer)
};

/// TCP connection lifecycle as tracked from flags.
enum class TcpState : std::uint8_t {
  kNone = 0,
  kSynSent,
  kEstablished,
  kFinWait,
  kClosed,
  kReset,
};

/// A reassembled conversation with summary statistics.
struct Flow {
  FiveTuple key;             // canonical orientation: first packet = client
  std::vector<FlowPacket> packets;
  double first_ts = 0.0;
  double last_ts = 0.0;
  std::uint64_t bytes_up = 0;    // client -> server
  std::uint64_t bytes_down = 0;  // server -> client
  TcpState tcp_state = TcpState::kNone;
  AppProtocol app = AppProtocol::kUnknown;

  double duration() const noexcept { return last_ts - first_ts; }
  std::size_t packet_count() const noexcept { return packets.size(); }
};

/// Aggregates packets into flows. Flows are evicted (moved to the finished
/// list) after `idle_timeout` seconds without traffic, on TCP close, or at
/// `flush()`.
class FlowTable {
 public:
  explicit FlowTable(double idle_timeout = 60.0) noexcept
      : idle_timeout_(idle_timeout) {}

  /// Feeds one packet; returns false if the frame failed to parse as IPv4.
  bool add(const Packet& packet);

  /// Moves all still-active flows into the finished list.
  void flush();

  /// Flows completed so far (closed, timed out, or flushed).
  const std::vector<Flow>& finished() const noexcept { return finished_; }
  std::vector<Flow> take_finished() noexcept { return std::move(finished_); }

  std::size_t active_count() const noexcept { return active_.size(); }

 private:
  /// Moves flows idle for longer than idle_timeout_ to finished_. Scans
  /// the table only when oldest_last_ts_ says some flow may be idle.
  void evict_idle(double now);

  double idle_timeout_;
  /// Lower bound on every active flow's last_ts (+inf when none).
  double oldest_last_ts_ = std::numeric_limits<double>::infinity();
  std::unordered_map<FiveTuple, Flow, FiveTupleHash> active_;
  std::vector<Flow> finished_;
};

}  // namespace netfm
