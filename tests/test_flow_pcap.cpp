// Flow table and pcap format tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/flow.h"
#include "net/pcap.h"
#include "trafficgen/generator.h"

namespace netfm {
namespace {

Packet tcp_packet(double ts, Ipv4Addr src, Ipv4Addr dst, std::uint16_t sport,
                  std::uint16_t dport, std::uint8_t flags) {
  Ipv4Header ip;
  ip.src = src;
  ip.dst = dst;
  TcpHeader tcp;
  tcp.src_port = sport;
  tcp.dst_port = dport;
  tcp.flags = flags;
  Packet p;
  p.timestamp = ts;
  p.frame = build_tcp_frame(MacAddr::from_id(1), MacAddr::from_id(2), ip, tcp,
                            {});
  return p;
}

const Ipv4Addr kClient = Ipv4Addr::from_octets(10, 0, 0, 1);
const Ipv4Addr kServer = Ipv4Addr::from_octets(10, 0, 0, 2);

TEST(FiveTuple, CanonicalCollapsesDirections) {
  const FiveTuple forward{kClient, kServer, 4000, 80, 6};
  const FiveTuple reverse{kServer, kClient, 80, 4000, 6};
  EXPECT_EQ(forward.canonical(), reverse.canonical());
  EXPECT_NE(forward, reverse);
  FiveTupleHash hash;
  EXPECT_EQ(hash(forward.canonical()), hash(reverse.canonical()));
}

TEST(FiveTuple, ToStringReadable) {
  const FiveTuple t{kClient, kServer, 4000, 80, 6};
  EXPECT_EQ(t.to_string(), "10.0.0.1:4000 -> 10.0.0.2:80 tcp");
}

TEST(FlowTable, MergesBothDirections) {
  FlowTable table;
  EXPECT_TRUE(table.add(tcp_packet(0.0, kClient, kServer, 4000, 80,
                                   TcpFlags::kSyn)));
  EXPECT_TRUE(table.add(tcp_packet(0.1, kServer, kClient, 80, 4000,
                                   TcpFlags::kSyn | TcpFlags::kAck)));
  EXPECT_TRUE(table.add(tcp_packet(0.2, kClient, kServer, 4000, 80,
                                   TcpFlags::kAck)));
  EXPECT_EQ(table.active_count(), 1u);
  table.flush();
  ASSERT_EQ(table.finished().size(), 1u);
  const Flow& flow = table.finished()[0];
  EXPECT_EQ(flow.packet_count(), 3u);
  // Orientation: first packet's sender is the client.
  EXPECT_EQ(flow.key.src_ip, kClient);
  EXPECT_TRUE(flow.packets[0].client_to_server);
  EXPECT_FALSE(flow.packets[1].client_to_server);
  EXPECT_EQ(flow.tcp_state, TcpState::kEstablished);
}

TEST(FlowTable, FullCloseEvictsWithFinalAck) {
  FlowTable table;
  table.add(tcp_packet(0.0, kClient, kServer, 4000, 80, TcpFlags::kSyn));
  table.add(tcp_packet(0.1, kServer, kClient, 80, 4000,
                       TcpFlags::kSyn | TcpFlags::kAck));
  table.add(tcp_packet(0.2, kClient, kServer, 4000, 80, TcpFlags::kAck));
  table.add(tcp_packet(0.3, kClient, kServer, 4000, 80,
                       TcpFlags::kFin | TcpFlags::kAck));
  table.add(tcp_packet(0.4, kServer, kClient, 80, 4000,
                       TcpFlags::kFin | TcpFlags::kAck));
  table.add(tcp_packet(0.5, kClient, kServer, 4000, 80, TcpFlags::kAck));
  EXPECT_EQ(table.active_count(), 0u);
  ASSERT_EQ(table.finished().size(), 1u);
  EXPECT_EQ(table.finished()[0].packet_count(), 6u);
}

TEST(FlowTable, RstEvictsImmediately) {
  FlowTable table;
  table.add(tcp_packet(0.0, kClient, kServer, 4000, 80, TcpFlags::kSyn));
  table.add(tcp_packet(0.1, kServer, kClient, 80, 4000,
                       TcpFlags::kRst | TcpFlags::kAck));
  EXPECT_EQ(table.active_count(), 0u);
  ASSERT_EQ(table.finished().size(), 1u);
  EXPECT_EQ(table.finished()[0].tcp_state, TcpState::kReset);
}

TEST(FlowTable, IdleTimeoutEvicts) {
  FlowTable table(/*idle_timeout=*/5.0);
  table.add(tcp_packet(0.0, kClient, kServer, 4000, 80, TcpFlags::kSyn));
  table.add(tcp_packet(10.0, kClient, kServer, 4001, 81, TcpFlags::kSyn));
  EXPECT_EQ(table.active_count(), 1u);  // first one timed out
  EXPECT_EQ(table.finished().size(), 1u);
}

TEST(FlowTable, ByteCountersByDirection) {
  FlowTable table;
  table.add(tcp_packet(0.0, kClient, kServer, 4000, 80, TcpFlags::kSyn));
  table.add(tcp_packet(0.1, kServer, kClient, 80, 4000,
                       TcpFlags::kSyn | TcpFlags::kAck));
  table.flush();
  const Flow& flow = table.finished()[0];
  EXPECT_GT(flow.bytes_up, 0u);
  EXPECT_GT(flow.bytes_down, 0u);
  EXPECT_EQ(flow.bytes_up + flow.bytes_down,
            flow.packets[0].frame_size + flow.packets[1].frame_size);
}

TEST(FlowTable, RejectsUnparseable) {
  FlowTable table;
  Packet junk;
  junk.frame = {1, 2, 3};
  EXPECT_FALSE(table.add(junk));
}

/// Reference flow table: the same keying and TCP lifecycle as FlowTable,
/// but it scans every active flow for idleness on every packet. Records
/// each finished flow's key and packet count, in finishing order.
class FullScanFlowTable {
 public:
  explicit FullScanFlowTable(double idle_timeout)
      : idle_timeout_(idle_timeout) {}

  void add(const Packet& packet) {
    const auto parsed = parse_packet(BytesView{packet.frame});
    if (!parsed) return;
    const auto tuple = FiveTuple::from_packet(*parsed);
    if (!tuple) return;
    for (auto it = active_.begin(); it != active_.end();) {
      if (packet.timestamp - it->second.last_ts > idle_timeout_) {
        finished_.emplace_back(it->second.key, it->second.packets);
        it = active_.erase(it);
      } else {
        ++it;
      }
    }
    auto [it, inserted] = active_.try_emplace(tuple->canonical());
    Entry& flow = it->second;
    if (inserted) flow.key = *tuple;
    flow.last_ts = packet.timestamp;
    ++flow.packets;
    if (!parsed->tcp) return;
    const TcpHeader& tcp = *parsed->tcp;
    const bool was_closed = flow.state == TcpState::kClosed;
    if (tcp.has(TcpFlags::kRst)) {
      flow.state = TcpState::kReset;
    } else if (tcp.has(TcpFlags::kSyn) && !tcp.has(TcpFlags::kAck)) {
      flow.state = TcpState::kSynSent;
    } else if (flow.state == TcpState::kSynSent && tcp.has(TcpFlags::kAck)) {
      flow.state = TcpState::kEstablished;
    } else if (tcp.has(TcpFlags::kFin)) {
      flow.state = flow.state == TcpState::kFinWait ? TcpState::kClosed
                                                    : TcpState::kFinWait;
    }
    if (flow.state == TcpState::kReset ||
        (was_closed && !tcp.has(TcpFlags::kFin) &&
         !tcp.has(TcpFlags::kSyn))) {
      finished_.emplace_back(flow.key, flow.packets);
      active_.erase(it);
    }
  }

  void flush() {
    for (const auto& [key, flow] : active_)
      finished_.emplace_back(flow.key, flow.packets);
    active_.clear();
  }

  const std::vector<std::pair<FiveTuple, std::size_t>>& finished() const {
    return finished_;
  }

 private:
  struct Entry {
    FiveTuple key;
    double last_ts = 0.0;
    std::size_t packets = 0;
    TcpState state = TcpState::kNone;
  };
  double idle_timeout_;
  std::unordered_map<FiveTuple, Entry, FiveTupleHash> active_;
  std::vector<std::pair<FiveTuple, std::size_t>> finished_;
};

TEST(FlowTable, IdleEvictionMatchesFullScanReference) {
  const auto trace = gen::quick_trace(30.0, 23);
  std::vector<Packet> out_of_order = trace.interleaved;
  ASSERT_GT(out_of_order.size(), 100u);
  // One packet stamped well before its neighbours, as in a pcap merged
  // from two capture points.
  out_of_order[out_of_order.size() / 2].timestamp -= 4.0;

  const std::vector<Packet>* inputs[] = {&trace.interleaved, &out_of_order};
  for (const std::vector<Packet>* packets : inputs) {
    for (const double timeout : {0.25, 1.0, 5.0}) {
      SCOPED_TRACE("timeout " + std::to_string(timeout));
      FlowTable table(timeout);
      FullScanFlowTable reference(timeout);
      for (const Packet& p : *packets) {
        table.add(p);
        reference.add(p);
      }
      EXPECT_GT(table.finished().size(), 0u);  // some finished before flush
      table.flush();
      reference.flush();
      ASSERT_EQ(table.finished().size(), reference.finished().size());
      for (std::size_t i = 0; i < table.finished().size(); ++i) {
        EXPECT_EQ(table.finished()[i].key, reference.finished()[i].first)
            << "flow " << i;
        EXPECT_EQ(table.finished()[i].packet_count(),
                  reference.finished()[i].second)
            << "flow " << i;
      }
    }
  }
}

TEST(Pcap, RoundTripInMemory) {
  const auto trace = gen::quick_trace(5.0, 7);
  const Bytes data = pcap_encode(trace.interleaved);
  const auto decoded = pcap_decode(BytesView{data});
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), trace.interleaved.size());
  for (std::size_t i = 0; i < decoded->size(); ++i) {
    EXPECT_EQ((*decoded)[i].frame, trace.interleaved[i].frame);
    EXPECT_NEAR((*decoded)[i].timestamp, trace.interleaved[i].timestamp,
                1e-5);
  }
}

TEST(Pcap, RejectsBadMagic) {
  Bytes bad(24, 0);
  EXPECT_FALSE(pcap_decode(BytesView{bad}).has_value());
  EXPECT_FALSE(pcap_decode(BytesView{}).has_value());
}

TEST(Pcap, ReadsLittleEndianHeader) {
  // Re-encode a valid stream with swapped global-header byte order.
  std::vector<Packet> packets = {{1.5, {0xde, 0xad}}};
  Bytes data = pcap_encode(packets);
  // Swap magic to little-endian and byte-swap the header fields we read.
  auto swap32 = [&](std::size_t at) {
    std::swap(data[at], data[at + 3]);
    std::swap(data[at + 1], data[at + 2]);
  };
  auto swap16 = [&](std::size_t at) { std::swap(data[at], data[at + 1]); };
  swap32(0);           // magic
  swap16(4);           // major
  swap16(6);           // minor
  swap32(8);           // thiszone
  swap32(12);          // sigfigs
  swap32(16);          // snaplen
  swap32(20);          // linktype
  for (std::size_t at : {24u, 28u, 32u, 36u}) swap32(at);  // record header
  const auto decoded = pcap_decode(BytesView{data});
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0].frame, (Bytes{0xde, 0xad}));
}

TEST(Pcap, TruncatedFinalRecordDropped) {
  std::vector<Packet> packets = {{0.0, Bytes(10, 1)}, {1.0, Bytes(10, 2)}};
  Bytes data = pcap_encode(packets);
  data.resize(data.size() - 5);  // chop into second record body
  const auto decoded = pcap_decode(BytesView{data});
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->size(), 1u);
}

TEST(Pcap, FileRoundTrip) {
  const std::string path = "/tmp/netfm_test_roundtrip.pcap";
  const auto trace = gen::quick_trace(2.0, 9);
  ASSERT_TRUE(pcap_write_file(path, trace.interleaved));
  const auto loaded = pcap_read_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), trace.interleaved.size());
  std::remove(path.c_str());
}

TEST(Pcap, MissingFileFails) {
  EXPECT_FALSE(pcap_read_file("/nonexistent/nope.pcap").has_value());
}

}  // namespace
}  // namespace netfm
