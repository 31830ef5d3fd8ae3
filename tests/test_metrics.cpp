// Observability registry: counter/gauge/histogram correctness, determinism
// of the thread-local shard merge under the shared thread pool, and JSON
// emitter round-trips (we parse exactly what we emit). Runs in its own
// binary under the ctest label `metrics` — collection is force-enabled
// here, which must not leak into other suites' timing assumptions.
#include "common/metrics.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/threadpool.h"
#include "nn/workspace.h"

namespace netfm {
namespace {

/// Fresh registry state per test; collection on.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::set_enabled(true);
    metrics::reset();
  }
  void TearDown() override { metrics::reset(); }
};

/// 0 when the counter has not been registered yet (registration is lazy —
/// it happens at the instrumented call site's first execution).
std::uint64_t counter_value_or_zero(const metrics::Snapshot& snap,
                                    const std::string& name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  return 0;
}

std::uint64_t counter_value(const metrics::Snapshot& snap,
                            const std::string& name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  ADD_FAILURE() << "counter not in snapshot: " << name;
  return 0;
}

double gauge_value(const metrics::Snapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.gauges)
    if (n == name) return v;
  ADD_FAILURE() << "gauge not in snapshot: " << name;
  return -1.0;
}

const metrics::HistogramData* histogram_data(const metrics::Snapshot& snap,
                                             const std::string& name) {
  for (const auto& [n, h] : snap.histograms)
    if (n == name) return &h;
  ADD_FAILURE() << "histogram not in snapshot: " << name;
  return nullptr;
}

TEST_F(MetricsTest, CounterAccumulatesAndResets) {
  const auto c = metrics::counter("test.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(counter_value(metrics::snapshot(), "test.counter"), 42u);

  metrics::reset();
  EXPECT_EQ(counter_value(metrics::snapshot(), "test.counter"), 0u);
}

TEST_F(MetricsTest, DisabledRecordingIsDropped) {
  const auto c = metrics::counter("test.disabled");
  metrics::set_enabled(false);
  c.add(100);
  metrics::set_enabled(true);
  c.add(1);
  EXPECT_EQ(counter_value(metrics::snapshot(), "test.disabled"), 1u);
}

TEST_F(MetricsTest, SameNameReturnsSameMetric) {
  const auto a = metrics::counter("test.same");
  const auto b = metrics::counter("test.same");
  a.add(2);
  b.add(3);
  EXPECT_EQ(counter_value(metrics::snapshot(), "test.same"), 5u);
}

TEST_F(MetricsTest, GaugeIsLastWriteWins) {
  const auto g = metrics::gauge("test.gauge");
  g.set(1.5);
  g.set(2.5);
  const auto snap = metrics::snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "test.gauge");
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 2.5);
}

TEST_F(MetricsTest, HistogramStatsAndQuantiles) {
  const auto h = metrics::histogram("test.hist", "us");
  for (int v = 1; v <= 1000; ++v) h.record(static_cast<double>(v));
  const auto snap = metrics::snapshot();
  const auto* data = histogram_data(snap, "test.hist");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->count, 1000u);
  EXPECT_DOUBLE_EQ(data->sum, 500500.0);
  EXPECT_DOUBLE_EQ(data->min, 1.0);
  EXPECT_DOUBLE_EQ(data->max, 1000.0);
  EXPECT_DOUBLE_EQ(data->mean(), 500.5);
  // Log-bucketed quantiles are approximate: within a power-of-two bucket.
  EXPECT_GE(data->quantile(0.5), 256.0);
  EXPECT_LE(data->quantile(0.5), 1000.0);
  EXPECT_GE(data->quantile(0.99), data->quantile(0.5));
  EXPECT_LE(data->quantile(1.0), 1000.0);
  EXPECT_EQ(snap.unit_of("test.hist"), "us");
}

TEST_F(MetricsTest, ScopedTimerRecordsElapsed) {
  const auto h = metrics::histogram("test.timer.ns");
  {
    metrics::ScopedTimer timer(h);
    volatile double sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + i;
  }
  const metrics::Snapshot snap = metrics::snapshot();
  const auto* data = histogram_data(snap, "test.timer.ns");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->count, 1u);
  EXPECT_GT(data->sum, 0.0);
}

// The merge across thread-local shards must count every increment exactly
// once regardless of pool size — same contract as the kernels' determinism.
TEST_F(MetricsTest, ThreadLocalMergeIsExactUnderThreadPool) {
  constexpr std::size_t kItems = 100000;
  for (const std::size_t threads : {1, 4}) {
    metrics::reset();
    ThreadPool::reset_global(threads);
    const auto c = metrics::counter("test.pool.items");
    const auto h = metrics::histogram("test.pool.hist", "items");
    ThreadPool::global().parallel_for(
        0, kItems, 64, [&](std::size_t lo, std::size_t hi) {
          c.add(hi - lo);
          for (std::size_t i = lo; i < hi; ++i)
            h.record(static_cast<double>(i % 97 + 1));
        });
    const auto snap = metrics::snapshot();
    EXPECT_EQ(counter_value(snap, "test.pool.items"), kItems)
        << "threads=" << threads;
    const auto* data = histogram_data(snap, "test.pool.hist");
    ASSERT_NE(data, nullptr);
    EXPECT_EQ(data->count, kItems) << "threads=" << threads;
  }
  ThreadPool::reset_global(0);
}

TEST_F(MetricsTest, InstrumentedDispatchCountsChunks) {
  ThreadPool::reset_global(2);
  const auto before =
      counter_value_or_zero(metrics::snapshot(), "threadpool.chunks");
  // 1024 items / grain 64 = 16 chunks through the instrumented dispatch.
  ThreadPool::global().parallel_for(0, 1024, 64,
                                    [](std::size_t, std::size_t) {});
  const auto after = counter_value(metrics::snapshot(), "threadpool.chunks");
  EXPECT_EQ(after - before, 16u);
  ThreadPool::reset_global(0);
}

TEST_F(MetricsTest, SnapshotJsonRoundTrips) {
  metrics::counter("test.json.counter").add(7);
  metrics::gauge("test.json.gauge").set(0.125);
  const auto h = metrics::histogram("test.json.hist");
  h.record(10.0);
  h.record(1000.0);

  const std::string text = metrics::snapshot().to_json();
  const auto parsed = json::Value::parse(text);
  ASSERT_TRUE(parsed.has_value()) << text;

  const json::Value* counters = parsed->find("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* c = counters->find("test.json.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->as_number(), 7.0);

  const json::Value* gauges = parsed->find("gauges");
  ASSERT_NE(gauges, nullptr);
  const json::Value* g = gauges->find("test.json.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->as_number(), 0.125);

  const json::Value* hists = parsed->find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* hist = hists->find("test.json.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(hist->find("sum")->as_number(), 1010.0);
  EXPECT_DOUBLE_EQ(hist->find("min")->as_number(), 10.0);
  EXPECT_DOUBLE_EQ(hist->find("max")->as_number(), 1000.0);
}

TEST(JsonTest, ParseAcceptsWhatDumpEmits) {
  json::Object inner;
  inner.emplace_back("quote\"back\\slash", json::Value("line\nbreak\ttab"));
  inner.emplace_back("unicode", json::Value(std::string("\xc3\xa9")));
  json::Array arr;
  arr.push_back(json::Value(true));
  arr.push_back(json::Value(nullptr));
  arr.push_back(json::Value(-12.5));
  arr.push_back(json::Value(std::uint64_t{9007199254740992ULL}));
  json::Object root;
  root.emplace_back("inner", json::Value(std::move(inner)));
  root.emplace_back("arr", json::Value(std::move(arr)));
  const json::Value original{std::move(root)};

  for (const int indent : {-1, 0, 2}) {
    const std::string text = original.dump(indent);
    const auto parsed = json::Value::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    // Round-trip equality via canonical re-dump.
    EXPECT_EQ(parsed->dump(), original.dump()) << "indent=" << indent;
  }
}

TEST(JsonTest, ParseRejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "1 2",
        "\"unterminated", "{\"a\":1}trailing", "[01x]"}) {
    EXPECT_FALSE(json::Value::parse(bad).has_value()) << bad;
  }
}

TEST(JsonTest, NumbersFollowTheJsonGrammar) {
  // RFC 8259: no '+' sign, no leading zeros, digits on both sides of '.',
  // a digit after the exponent marker; nothing past double's range.
  for (const char* bad :
       {"+5", "01", "-01", "00", "1.", ".5", "-.5", "1.e5", "-", "--1", "1e",
        "1e+", "1E-", "0x10", "1e400", "-1e400", "1e309", "[+5]", "[1.]",
        "{\"ids\":[+5]}", "Infinity", "NaN", "- 1"}) {
    EXPECT_FALSE(json::Value::parse(bad).has_value()) << bad;
  }
  const auto number = [](const char* text) {
    const auto v = json::Value::parse(text);
    EXPECT_TRUE(v.has_value()) << text;
    return v ? v->as_number() : std::nan("");
  };
  EXPECT_EQ(number("0"), 0.0);
  EXPECT_EQ(number("-0.0"), 0.0);
  EXPECT_EQ(number("1E+2"), 100.0);
  EXPECT_EQ(number("2.5e-3"), 2.5e-3);
  EXPECT_EQ(number("-12.5"), -12.5);
  EXPECT_EQ(number("1.7976931348623157e308"), 1.7976931348623157e308);
  // A literal below double's smallest subnormal rounds to zero.
  EXPECT_EQ(number("1e-400"), 0.0);
  // Unsigned integers stay exact up to 2^64 - 1, then read as doubles.
  const auto max = json::Value::parse("18446744073709551615");
  ASSERT_TRUE(max.has_value());
  ASSERT_TRUE(max->as_uint().has_value());
  EXPECT_EQ(*max->as_uint(), ~std::uint64_t{0});
  EXPECT_EQ(number("18446744073709551616"), 18446744073709551616.0);
}

TEST(JsonTest, ShortestFormFloatsRoundTrip) {
  for (const float f : {1e-05f, -0.0f, 0.1f, 3.0f, -2.5e-38f, 3.4028235e38f,
                        1e-45f, 0.33333334f}) {
    const std::string text = json::Value(f).dump();
    const auto v = json::Value::parse(text);
    ASSERT_TRUE(v.has_value()) << text;
    ASSERT_TRUE(v->as_float().has_value()) << text;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(*v->as_float()),
              std::bit_cast<std::uint32_t>(f))
        << text;
  }
  EXPECT_EQ(json::Value(1e-05f).dump(), "1e-05");
  EXPECT_EQ(json::Value(-0.0f).dump(), "-0");
}

TEST(JsonTest, ParseHandlesEscapes) {
  const auto v = json::Value::parse(R"({"k":"aéA\n"})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("k")->as_string(), "a\xc3\xa9"  "A\n");
}

TEST(JsonTest, NonFiniteNumbersEmitNull) {
  EXPECT_EQ(json::Value(std::nan("")).dump(), "null");
  EXPECT_EQ(json::Value(1e308 * 10).dump(), "null");
}

TEST(JsonTest, FloatsPrintShortestAndParsedLiteralsKeepBothWidths) {
  EXPECT_EQ(json::Value(0.1f).dump(), "0.1");
  EXPECT_EQ(json::Value(std::nanf("")).dump(), "null");
  const auto v = json::Value::parse("[0.1,3,1e39,-0]");
  ASSERT_TRUE(v.has_value());
  const json::Array& a = v->as_array();
  // A literal reads at double width for as_number and float for as_float.
  EXPECT_EQ(a[0].as_number(), 0.1);
  EXPECT_EQ(*a[0].as_float(), 0.1f);
  EXPECT_EQ(*a[1].as_float(), 3.0f);
  EXPECT_EQ(*a[2].as_float(), std::numeric_limits<float>::infinity());
  EXPECT_TRUE(std::signbit(*a[3].as_float()));
  EXPECT_FALSE(json::Value("0.1").as_float().has_value());
}

TEST_F(MetricsTest, WorkspaceGaugeTracksCapacityNotSize) {
  auto& ws = nn::Workspace::current();
  ws.clear();
  EXPECT_DOUBLE_EQ(gauge_value(metrics::snapshot(), "infer.workspace_bytes"),
                   0.0);

  auto big = ws.acquire(256);
  const std::size_t big_bytes = big.capacity() * sizeof(float);
  // Checked out: nothing parked in the workspace.
  EXPECT_DOUBLE_EQ(gauge_value(metrics::snapshot(), "infer.workspace_bytes"),
                   0.0);
  ws.release(std::move(big));
  EXPECT_EQ(ws.bytes_held(), big_bytes);
  EXPECT_DOUBLE_EQ(gauge_value(metrics::snapshot(), "infer.workspace_bytes"),
                   static_cast<double>(big_bytes));

  // Shrinking reuse hands back the big-capacity block resized to 100
  // floats; release must credit capacity, not size, or the accounting
  // leaks the difference forever.
  auto small = ws.acquire(100);
  EXPECT_EQ(small.capacity() * sizeof(float), big_bytes);
  EXPECT_DOUBLE_EQ(gauge_value(metrics::snapshot(), "infer.workspace_bytes"),
                   0.0);
  ws.release(std::move(small));
  EXPECT_EQ(ws.bytes_held(), big_bytes);
  EXPECT_DOUBLE_EQ(gauge_value(metrics::snapshot(), "infer.workspace_bytes"),
                   static_cast<double>(big_bytes));

  ws.clear();
  EXPECT_EQ(ws.bytes_held(), 0u);
  EXPECT_DOUBLE_EQ(gauge_value(metrics::snapshot(), "infer.workspace_bytes"),
                   0.0);
}

}  // namespace
}  // namespace netfm
