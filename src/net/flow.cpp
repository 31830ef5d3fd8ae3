#include "net/flow.h"

#include <algorithm>
#include <limits>

#include "common/metrics.h"

namespace netfm {
namespace {

void note_flow_finished(std::size_t n = 1) {
  static const auto c = metrics::counter("net.flow.flows_finished");
  c.add(n);
}

}  // namespace

FiveTuple FiveTuple::canonical() const noexcept {
  const auto a = std::make_tuple(src_ip.value, src_port);
  const auto b = std::make_tuple(dst_ip.value, dst_port);
  if (a <= b) return *this;
  return FiveTuple{dst_ip, src_ip, dst_port, src_port, protocol};
}

std::string FiveTuple::to_string() const {
  std::string proto;
  switch (static_cast<IpProto>(protocol)) {
    case IpProto::kTcp: proto = "tcp"; break;
    case IpProto::kUdp: proto = "udp"; break;
    case IpProto::kIcmp: proto = "icmp"; break;
    default: proto = std::to_string(protocol); break;
  }
  return src_ip.to_string() + ":" + std::to_string(src_port) + " -> " +
         dst_ip.to_string() + ":" + std::to_string(dst_port) + " " + proto;
}

std::optional<FiveTuple> FiveTuple::from_packet(
    const ParsedPacket& pkt) noexcept {
  if (!pkt.ipv4) return std::nullopt;
  FiveTuple t;
  t.src_ip = pkt.ipv4->src;
  t.dst_ip = pkt.ipv4->dst;
  t.src_port = pkt.src_port();
  t.dst_port = pkt.dst_port();
  t.protocol = pkt.ipv4->protocol;
  return t;
}

std::size_t FiveTupleHash::operator()(const FiveTuple& t) const noexcept {
  // FNV-1a over the tuple fields.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(t.src_ip.value);
  mix(t.dst_ip.value);
  mix((std::uint64_t{t.src_port} << 24) | (std::uint64_t{t.dst_port} << 8) |
      t.protocol);
  return static_cast<std::size_t>(h);
}

bool FlowTable::add(const Packet& packet) {
  static const auto c_packets = metrics::counter("net.flow.packets");
  static const auto c_bytes = metrics::counter("net.flow.bytes", "byte");
  c_packets.add();
  c_bytes.add(packet.frame.size());
  const auto parsed = parse_packet(BytesView{packet.frame});
  if (!parsed) return false;
  const auto tuple = FiveTuple::from_packet(*parsed);
  if (!tuple) return false;

  evict_idle(packet.timestamp);

  const FiveTuple key = tuple->canonical();
  auto [it, inserted] = active_.try_emplace(key);
  Flow& flow = it->second;
  if (inserted) {
    // Orient the flow so the first packet's sender is the client.
    flow.key = *tuple;
    flow.first_ts = packet.timestamp;
    flow.app = parsed->app;
  }
  flow.last_ts = packet.timestamp;
  // Lowered by every packet, so out-of-order timestamps keep it a bound.
  oldest_last_ts_ = std::min(oldest_last_ts_, packet.timestamp);

  FlowPacket fp;
  fp.timestamp = packet.timestamp;
  fp.frame_size = packet.frame.size();
  fp.frame = packet.frame;
  fp.client_to_server = (tuple->src_ip == flow.key.src_ip &&
                         tuple->src_port == flow.key.src_port);
  if (fp.client_to_server)
    flow.bytes_up += packet.frame.size();
  else
    flow.bytes_down += packet.frame.size();
  flow.packets.push_back(std::move(fp));
  if (flow.app == AppProtocol::kUnknown) flow.app = parsed->app;

  // TCP lifecycle tracking. A closed flow is only evicted once the final
  // ACK of the FIN/FIN exchange has been absorbed, so teardown packets
  // don't orphan into a spurious one-packet flow.
  if (parsed->tcp) {
    const TcpHeader& tcp = *parsed->tcp;
    const bool was_closed = flow.tcp_state == TcpState::kClosed;
    if (tcp.has(TcpFlags::kRst)) {
      flow.tcp_state = TcpState::kReset;
    } else if (tcp.has(TcpFlags::kSyn) && !tcp.has(TcpFlags::kAck)) {
      flow.tcp_state = TcpState::kSynSent;
    } else if (flow.tcp_state == TcpState::kSynSent &&
               tcp.has(TcpFlags::kAck)) {
      flow.tcp_state = TcpState::kEstablished;
    } else if (tcp.has(TcpFlags::kFin)) {
      flow.tcp_state = flow.tcp_state == TcpState::kFinWait
                           ? TcpState::kClosed
                           : TcpState::kFinWait;
    }
    const bool absorb_final_ack =
        was_closed && !tcp.has(TcpFlags::kFin) && !tcp.has(TcpFlags::kSyn);
    if (flow.tcp_state == TcpState::kReset || absorb_final_ack) {
      finished_.push_back(std::move(flow));
      active_.erase(it);
      note_flow_finished();
    }
  }
  return true;
}

void FlowTable::evict_idle(double now) {
  // Every active flow has last_ts >= oldest_last_ts_, and subtraction is
  // monotone, so when the bound is not idle no flow is: skip the scan.
  if (!(now - oldest_last_ts_ > idle_timeout_)) return;
  double oldest = std::numeric_limits<double>::infinity();
  for (auto it = active_.begin(); it != active_.end();) {
    if (now - it->second.last_ts > idle_timeout_) {
      finished_.push_back(std::move(it->second));
      it = active_.erase(it);
      note_flow_finished();
    } else {
      oldest = std::min(oldest, it->second.last_ts);
      ++it;
    }
  }
  oldest_last_ts_ = oldest;
}

void FlowTable::flush() {
  note_flow_finished(active_.size());
  for (auto& [key, flow] : active_) finished_.push_back(std::move(flow));
  active_.clear();
  oldest_last_ts_ = std::numeric_limits<double>::infinity();
}

}  // namespace netfm
