#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "par/comm.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/observe.hpp"

namespace foam::telemetry {
namespace {

TelemetryOptions full_opts() {
  TelemetryOptions o;
  o.level = TraceLevel::kFull;
  return o;
}

// ---------------------------------------------------------------------------
// Tracer: nesting, region inheritance, region totals
// ---------------------------------------------------------------------------

TEST(Tracer, RecordsNestedSpansWithDepthsAndRegions) {
  Tracer tr(full_opts());
  tr.begin_region(par::Region::kAtmosphere);
  tr.begin_span("outer");
  tr.begin_span("inner");
  tr.end_span();
  tr.end_span();
  tr.end_region();
  const auto spans = tr.spans();  // completion order: inner, outer, region
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(tr.names()[spans[0].name_id], "inner");
  EXPECT_EQ(spans[0].depth, 2);
  EXPECT_EQ(tr.names()[spans[1].name_id], "outer");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(tr.names()[spans[2].name_id], "atmosphere");
  EXPECT_EQ(spans[2].depth, 0);
  // Named spans inherit the innermost enclosing region class.
  for (const auto& s : spans) EXPECT_EQ(s.region, par::Region::kAtmosphere);
  // Parent intervals contain child intervals.
  EXPECT_LE(spans[2].t0, spans[1].t0);
  EXPECT_LE(spans[1].t0, spans[0].t0);
  EXPECT_LE(spans[0].t1, spans[1].t1);
  EXPECT_LE(spans[1].t1, spans[2].t1);
  EXPECT_EQ(tr.open_depth(), 0);
}

TEST(Tracer, NestedRegionCountsOnlyAtTopLevel) {
  Tracer tr(full_opts());
  tr.begin_region(par::Region::kAtmosphere);
  tr.begin_region(par::Region::kCoupler);
  tr.end_region();
  tr.end_region();
  // Both spans are recorded, the nested one at depth 1.
  const RankTrace t = tr.trace();
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_EQ(t.spans[0].region, par::Region::kCoupler);
  EXPECT_EQ(t.spans[0].depth, 1);
  EXPECT_EQ(t.spans[1].region, par::Region::kAtmosphere);
  EXPECT_EQ(t.spans[1].depth, 0);
  // Only the top-level span counts: the atmosphere total is its whole
  // interval, the nested coupler span adds nothing. RankTrace applies the
  // same rule to the same clock reads, so the two agree bit for bit.
  const auto& totals = tr.region_totals();
  EXPECT_EQ(totals[static_cast<int>(par::Region::kAtmosphere)],
            t.spans[1].t1 - t.spans[1].t0);
  EXPECT_EQ(totals[static_cast<int>(par::Region::kCoupler)], 0.0);
  for (int g = 0; g < par::kRegionCount; ++g)
    EXPECT_EQ(totals[g], t.region_total(static_cast<par::Region>(g)))
        << par::region_name(static_cast<par::Region>(g));
}

TEST(Tracer, RegionTotalsOutliveRingDrops) {
  TelemetryOptions o;
  o.level = TraceLevel::kRegions;
  o.max_spans = 16;
  Tracer tr(o);
  // 24 ocean spans the ring will drop, then 16 atmosphere spans it keeps.
  for (int i = 0; i < 40; ++i) {
    tr.begin_region(i < 24 ? par::Region::kOcean : par::Region::kAtmosphere);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    tr.end_region();
  }
  const RankTrace t = tr.trace();
  ASSERT_EQ(t.spans.size(), 16u);
  EXPECT_EQ(t.dropped, 24u);
  const auto& totals = tr.region_totals();
  // The trace lost every ocean span; the totals still hold all 24.
  EXPECT_EQ(t.region_total(par::Region::kOcean), 0.0);
  EXPECT_GE(totals[static_cast<int>(par::Region::kOcean)], 24 * 50e-6);
  // The 16 kept spans are the whole atmosphere total.
  EXPECT_EQ(totals[static_cast<int>(par::Region::kAtmosphere)],
            t.region_total(par::Region::kAtmosphere));
  EXPECT_GE(totals[static_cast<int>(par::Region::kAtmosphere)], 16 * 50e-6);
}

TEST(Tracer, RegionTotalsFilledAtOff) {
  TelemetryOptions o;
  o.level = TraceLevel::kOff;
  Tracer tr(o);
  tr.begin_region(par::Region::kOcean);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  tr.end_region();
  EXPECT_TRUE(tr.spans().empty());
  EXPECT_GE(tr.region_totals()[static_cast<int>(par::Region::kOcean)], 1e-3);
}

TEST(Tracer, ResetClearsRegionTotals) {
  Tracer tr(full_opts());
  tr.begin_region(par::Region::kCoupler);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  tr.end_region();
  ASSERT_GT(tr.region_totals()[static_cast<int>(par::Region::kCoupler)], 0.0);
  tr.reset();
  for (const double v : tr.region_totals()) EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(tr.spans().empty());
}

TEST(Tracer, EndRegionWithoutBeginIsNoop) {
  Tracer tr(full_opts());
  tr.end_region();
  EXPECT_EQ(tr.open_depth(), 0);
  EXPECT_TRUE(tr.spans().empty());
  for (const double v : tr.region_totals()) EXPECT_EQ(v, 0.0);
}

TEST(Tracer, NamedSpansNotRecordedBelowFull) {
  TelemetryOptions o;
  o.level = TraceLevel::kRegions;
  Tracer tr(o);
  tr.begin_region(par::Region::kOcean);
  tr.begin_span("hidden");
  tr.end_span();
  tr.end_region();
  const auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(tr.names()[spans[0].name_id], "ocean");
}

TEST(Tracer, CurrentRegionTracksInnermostRegionSpan) {
  Tracer tr(full_opts());
  EXPECT_EQ(tr.current_region(), par::Region::kOther);
  tr.begin_region(par::Region::kOcean);
  tr.begin_span("named");  // named spans do not change the region class
  EXPECT_EQ(tr.current_region(), par::Region::kOcean);
  tr.begin_region(par::Region::kCommWait);
  EXPECT_EQ(tr.current_region(), par::Region::kCommWait);
  tr.end_region();
  tr.end_span();
  tr.end_region();
  EXPECT_EQ(tr.current_region(), par::Region::kOther);
}

TEST(Tracer, RingBufferDropsOldestAndCounts) {
  TelemetryOptions o;
  o.level = TraceLevel::kFull;
  o.max_spans = 4;  // clamped up to the minimum of 16
  Tracer tr(o);
  for (int i = 0; i < 20; ++i) {
    // Built with += rather than "s" + to_string(i): the rvalue operator+
    // overload trips a GCC 12 libstdc++ -Wrestrict false positive (PR
    // 105329) that -Werror would turn fatal.
    std::string name = "s";
    name += std::to_string(i);
    tr.begin_span(name.c_str());
    tr.end_span();
  }
  const auto spans = tr.spans();
  EXPECT_EQ(spans.size(), 16u);
  EXPECT_EQ(tr.dropped(), 4u);
  // Chronological order preserved: the 4 oldest were overwritten.
  EXPECT_EQ(tr.names()[spans.front().name_id], "s4");
  EXPECT_EQ(tr.names()[spans.back().name_id], "s19");
}

// ---------------------------------------------------------------------------
// ScopedSession / ScopedSpan: RAII and exception unwind
// ---------------------------------------------------------------------------

void traced_throw() {
  FOAM_TRACE_SCOPE("throws");
  throw std::runtime_error("unwind");
}

TEST(ScopedSpan, ClosesOnExceptionUnwind) {
  Telemetry tel(full_opts());
  ScopedSession session(tel);
  Tracer& tr = tel.tracer();
  tr.begin_region(par::Region::kAtmosphere);
  EXPECT_THROW(traced_throw(), std::runtime_error);
  // The span destructor ran during unwind: the stack is back to just the
  // region, and the span was recorded.
  EXPECT_EQ(tr.open_depth(), 1);
  tr.end_region();
  const auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(tr.names()[spans[0].name_id], "throws");
  EXPECT_EQ(spans[0].depth, 1);
}

TEST(ScopedSpan, NoOpWithoutSessionOrBelowFull) {
  {
    FOAM_TRACE_SCOPE("no session");  // must not crash
  }
  Telemetry tel;  // default level: kRegions
  ScopedSession session(tel);
  {
    FOAM_TRACE_SCOPE("below full");
  }
  EXPECT_TRUE(tel.tracer().spans().empty());
}

TEST(ScopedSession, RestoresPreviousSession) {
  EXPECT_EQ(current(), nullptr);
  Telemetry outer;
  {
    ScopedSession a(outer);
    EXPECT_EQ(current(), &outer);
    Telemetry inner;
    {
      ScopedSession b(inner);
      EXPECT_EQ(current(), &inner);
    }
    EXPECT_EQ(current(), &outer);
  }
  EXPECT_EQ(current(), nullptr);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  // Bucket b covers [2^(b-32), 2^(b-31)): 1.0 starts bucket 32, 0.5 is the
  // top of bucket 31.
  EXPECT_EQ(Histogram::bucket_of(1.0), 32);
  EXPECT_EQ(Histogram::bucket_of(0.5), 31);
  EXPECT_EQ(Histogram::bucket_of(1.5), 32);
  EXPECT_EQ(Histogram::bucket_of(2.0), 33);
  EXPECT_EQ(Histogram::bucket_of(std::nextafter(2.0, 0.0)), 32);
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower(32), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower(31), 0.5);
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower(33), 2.0);
  // Values land at or above their bucket's lower bound.
  for (const double v : {1e-6, 0.3, 1.0, 7.0, 1e5}) {
    const int b = Histogram::bucket_of(v);
    EXPECT_GE(v, Histogram::bucket_lower(b)) << v;
    EXPECT_LT(v, Histogram::bucket_lower(b + 1)) << v;
  }
}

TEST(Histogram, EdgeValuesGoToSentinelBuckets) {
  EXPECT_EQ(Histogram::bucket_of(0.0), 0);
  EXPECT_EQ(Histogram::bucket_of(-3.0), 0);
  EXPECT_EQ(Histogram::bucket_of(std::nan("")), 0);
  EXPECT_EQ(Histogram::bucket_of(1e-30), 0);  // below 2^-31: underflow
  EXPECT_EQ(Histogram::bucket_of(1e30), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<double>::infinity()),
            Histogram::kBuckets - 1);
}

TEST(Histogram, RecordAccumulates) {
  Histogram h;
  h.record(1.0);
  h.record(1.5);
  h.record(4.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 6.5);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_EQ(h.buckets()[32], 2u);
  EXPECT_EQ(h.buckets()[34], 1u);
}

TEST(MetricsHelpers, WriteThroughCurrentSession) {
  Telemetry tel;
  {
    ScopedSession session(tel);
    count("events", 2);
    count("events");
    observe("sizes", 3.0);
    gauge_max("hwm", 5.0);
    gauge_max("hwm", 2.0);  // lower: keeps the high-water mark
  }
  count("events", 100);  // outside the session: dropped
  EXPECT_EQ(tel.metrics().counter("events").value(), 3u);
  EXPECT_EQ(tel.metrics().histogram("sizes").count(), 1u);
  EXPECT_DOUBLE_EQ(tel.metrics().gauge("hwm").value(), 5.0);
  const auto samples = tel.snapshot();
  auto find = [&](const std::string& name) {
    for (const auto& [n, v] : samples)
      if (n == name) return v;
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(find("events"), 3.0);
  EXPECT_DOUBLE_EQ(find("sizes.count"), 1.0);
  EXPECT_DOUBLE_EQ(find("trace.spans_dropped"), 0.0);
}

TEST(CommStats, TracksPeersByTagClass) {
  CommStats cs;
  cs.on_send(3, /*internal=*/false, 100, /*dest_depth=*/2);
  cs.on_send(3, /*internal=*/false, 50, /*dest_depth=*/7);
  cs.on_send(1, /*internal=*/true, 8, /*dest_depth=*/0);
  cs.on_recv(3, /*internal=*/false, 100);
  cs.on_mailbox_depth(4);
  cs.on_mailbox_depth(1);
  EXPECT_EQ(cs.peers[0][3].msgs_sent, 2u);
  EXPECT_EQ(cs.peers[0][3].bytes_sent, 150u);
  EXPECT_EQ(cs.peers[1][1].msgs_sent, 1u);
  EXPECT_EQ(cs.peers[0][3].msgs_recv, 1u);
  EXPECT_EQ(cs.dest_mailbox_hwm, 7u);
  EXPECT_EQ(cs.mailbox_hwm, 4u);
  std::vector<std::pair<std::string, double>> out;
  cs.snapshot(out);
  bool found = false;
  for (const auto& [n, v] : out)
    if (n == "comm.sent.bytes.user.peer3") {
      found = true;
      EXPECT_DOUBLE_EQ(v, 150.0);
    }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(TraceStream, RoundTrips) {
  Tracer tr(full_opts());
  tr.begin_region(par::Region::kOcean);
  tr.begin_span("solve");
  tr.end_span();
  tr.end_region();
  const RankTrace t = tr.trace();
  const auto buf = serialize_trace(t);
  const RankTrace back = deserialize_trace(buf.data(), buf.size());
  ASSERT_EQ(back.names.size(), t.names.size());
  EXPECT_EQ(back.names, t.names);
  ASSERT_EQ(back.spans.size(), t.spans.size());
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    EXPECT_EQ(back.spans[i].name_id, t.spans[i].name_id);
    EXPECT_EQ(back.spans[i].region, t.spans[i].region);
    EXPECT_EQ(back.spans[i].depth, t.spans[i].depth);
    EXPECT_DOUBLE_EQ(back.spans[i].t0, t.spans[i].t0);
    EXPECT_DOUBLE_EQ(back.spans[i].t1, t.spans[i].t1);
  }
  EXPECT_EQ(back.dropped, t.dropped);
}

TEST(TraceStream, RejectsMalformedInput) {
  // Empty stream: missing the name count.
  EXPECT_THROW(deserialize_trace(nullptr, 0), foam::Error);
  {
    const double buf[] = {1.0, 3.0, 'a', 'b'};  // truncated name chars
    EXPECT_THROW(deserialize_trace(buf, 4), foam::Error);
  }
  {
    const double buf[] = {-1.0};  // negative name count
    EXPECT_THROW(deserialize_trace(buf, 1), foam::Error);
  }
  {
    // One span with an out-of-range name id.
    const double buf[] = {0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0};
    EXPECT_THROW(deserialize_trace(buf, 8), foam::Error);
  }
  {
    // One name, one span, t1 < t0.
    const double buf[] = {1.0, 1.0, 'x', 0.0, 1.0,
                          0.0, 0.0, 0.0, 2.0, 1.0};
    EXPECT_THROW(deserialize_trace(buf, 10), foam::Error);
  }
  {
    // Valid empty trace followed by trailing garbage.
    const double buf[] = {0.0, 0.0, 0.0, 42.0};
    EXPECT_THROW(deserialize_trace(buf, 4), foam::Error);
  }
}

TEST(SampleStream, RoundTripsAndValidates) {
  const std::vector<std::pair<std::string, double>> samples = {
      {"a.count", 3.0}, {"b", -1.5}};
  const auto buf = serialize_samples(samples);
  EXPECT_EQ(deserialize_samples(buf.data(), buf.size()), samples);
  EXPECT_THROW(deserialize_samples(nullptr, 0), foam::Error);
  const double bad[] = {2.0, 1.0, 'a', 0.5};  // second sample missing
  EXPECT_THROW(deserialize_samples(bad, 4), foam::Error);
}

// ---------------------------------------------------------------------------
// Gather and merge across ranks
// ---------------------------------------------------------------------------

TEST(TraceGather, SerializeGatherMergeAcrossEightRanks) {
  par::run(8, [](par::Comm& comm) {
    Telemetry tel(full_opts());
    ScopedSession session(tel);
    Tracer& tr = tel.tracer();
    tr.begin_region(comm.rank() % 2 == 0 ? par::Region::kAtmosphere
                                         : par::Region::kOcean);
    {
      FOAM_TRACE_SCOPE("work");
      volatile double sink = 0.0;
      for (int i = 0; i < 1000; ++i) sink = sink + i;
    }
    tr.end_region();

    const std::vector<double> mine = serialize_trace(tr.trace());
    std::vector<double> lens = {static_cast<double>(mine.size())};
    std::vector<double> all_lens(8);
    comm.allgather(lens.data(), 1, all_lens.data());
    std::vector<int> counts(8);
    for (int r = 0; r < 8; ++r) counts[r] = static_cast<int>(all_lens[r]);
    std::vector<double> gathered;
    comm.gatherv(mine, gathered, counts, 0);
    if (comm.rank() != 0) return;

    std::size_t off = 0;
    std::vector<RankTrace> ranks;
    for (int r = 0; r < 8; ++r) {
      ranks.push_back(deserialize_trace(gathered.data() + off,
                                        static_cast<std::size_t>(counts[r])));
      off += static_cast<std::size_t>(counts[r]);
    }
    for (int r = 0; r < 8; ++r) {
      ASSERT_EQ(ranks[r].spans.size(), 2u) << "rank " << r;
      EXPECT_TRUE(ranks[r].has_nested()) << "rank " << r;
      const par::Region want = r % 2 == 0 ? par::Region::kAtmosphere
                                          : par::Region::kOcean;
      EXPECT_GT(ranks[r].region_total(want), 0.0) << "rank " << r;
      bool has_work = false;
      for (const auto& n : ranks[r].names) has_work |= n == "work";
      EXPECT_TRUE(has_work) << "rank " << r;
    }
    // The merged export covers all 8 ranks.
    const std::string doc = chrome_trace_json(ranks);
    EXPECT_TRUE(json_validate(doc));
    for (int r = 0; r < 8; ++r)
      EXPECT_NE(doc.find("\"rank " + std::to_string(r) + "\""),
                std::string::npos);
  });
}

// ---------------------------------------------------------------------------
// Chrome trace export + JSON validator
// ---------------------------------------------------------------------------

TEST(ChromeTrace, EmitsValidNestedDocument) {
  RankTrace t;
  t.names = {"atmosphere", "legendre \"fold\"\n"};  // needs escaping
  t.spans = {{1, par::Region::kAtmosphere, 1, 0.0010, 0.0020},
             {0, par::Region::kAtmosphere, 0, 0.0, 0.0100}};
  const std::string doc = chrome_trace_json({t});
  std::string err;
  EXPECT_TRUE(json_validate(doc, &err)) << err;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
  // Control characters take the \uXXXX form, quotes a backslash prefix.
  EXPECT_NE(doc.find("legendre \\\"fold\\\"\\u000a"), std::string::npos);
  // Microsecond timestamps: the 10 ms region span has dur 10000.
  EXPECT_NE(doc.find("\"dur\": 10000"), std::string::npos);
}

TEST(JsonValidate, AcceptsValidDocuments) {
  for (const char* ok :
       {"{}", "[]", "null", "true", "-1.5e-3", "\"a\\u00e9b\"",
        R"({"a": [1, 2.5, {"b": "\n"}], "c": false})"}) {
    std::string err;
    EXPECT_TRUE(json_validate(ok, &err)) << ok << ": " << err;
  }
}

TEST(JsonValidate, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{]", "[1] extra", "{'a': 1}",
        "[01]", "\"\\x\"", "\"unterminated", "nul", "+1", "[1 2]",
        "{\"a\" 1}"}) {
    EXPECT_FALSE(json_validate(bad)) << bad;
  }
}

// ---------------------------------------------------------------------------
// Crash-safe trace file writer
// ---------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

TEST(ChromeTrace, FileWriterIsAtomicAndMatchesStringExport) {
  RankTrace t;
  t.names = {"atmosphere", "work"};
  t.spans = {{1, par::Region::kAtmosphere, 1, 0.001, 0.002},
             {0, par::Region::kAtmosphere, 0, 0.0, 0.01}};
  const std::string path = testing::TempDir() + "/atomic_trace.json";
  ASSERT_TRUE(write_chrome_trace(path, {t}));
  const std::string doc = slurp(path);
  std::string err;
  EXPECT_TRUE(json_validate(doc, &err)) << err;
  // The streamed file is byte-identical to the string exporter and the
  // temporary is gone after the atomic rename.
  EXPECT_EQ(doc, chrome_trace_json({t}));
  EXPECT_FALSE(file_exists(path + ".tmp"));
}

TEST(ChromeTrace, AbandonedAtomicFileLeavesNothingBehind) {
  const std::string path = testing::TempDir() + "/abandoned.json";
  {
    AtomicJsonFile out(path);
    ASSERT_TRUE(out.ok());
    out.stream() << "{ torn";  // never committed
  }
  EXPECT_FALSE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
}

// ---------------------------------------------------------------------------
// Profiler leaf word + open-span capture
// ---------------------------------------------------------------------------

TEST(Tracer, PublishesPackedInnermostOpenSpan) {
  Tracer tr(full_opts());
  EXPECT_FALSE(leaf_open(tr.profile_leaf().sample()));
  tr.begin_region(par::Region::kOcean);
  {
    const std::uint64_t v = tr.profile_leaf().sample();
    ASSERT_TRUE(leaf_open(v));
    EXPECT_EQ(leaf_region(v), par::Region::kOcean);
  }
  tr.begin_span("barotropic");
  {
    const std::uint64_t v = tr.profile_leaf().sample();
    ASSERT_TRUE(leaf_open(v));
    EXPECT_EQ(leaf_region(v), par::Region::kOcean);
    EXPECT_EQ(tr.names()[static_cast<std::size_t>(leaf_name_id(v))],
              "barotropic");
  }
  tr.end_span();
  tr.end_region();
  EXPECT_FALSE(leaf_open(tr.profile_leaf().sample()));
}

TEST(Tracer, TraceCanIncludeOpenSpans) {
  Tracer tr(full_opts());
  tr.begin_region(par::Region::kAtmosphere);
  tr.begin_span("in_flight");
  const RankTrace closed = tr.trace();
  EXPECT_TRUE(closed.spans.empty());
  const RankTrace live = tr.trace(/*include_open=*/true);
  ASSERT_EQ(live.spans.size(), 2u);
  EXPECT_EQ(live.names[static_cast<std::size_t>(live.spans[1].name_id)],
            "in_flight");
  EXPECT_GE(live.spans[1].t1, live.spans[1].t0);
  const auto open = tr.open_span_names();
  ASSERT_EQ(open.size(), 2u);
  EXPECT_EQ(open[0], "atmosphere");
  EXPECT_EQ(open[1], "in_flight");
  tr.end_span();
  tr.end_region();
}

// ---------------------------------------------------------------------------
// RunObserver: status feed, flight recorder, sampling profiler
// ---------------------------------------------------------------------------

ObservabilityOptions status_opts(const std::string& dir) {
  ObservabilityOptions o;
  o.status = true;
  o.status_interval_seconds = 0.02;
  o.dir = dir;
  return o;
}

TEST(RunObserver, StatusFeedTracksRunLifecycle) {
  const std::string dir = testing::TempDir();
  Telemetry tel(full_opts());
  ScopedSession session(tel);
  {
    ScopedRankObserver obs(status_opts(dir), 0, 1, "1+0 test", 10.0);
    ASSERT_TRUE(static_cast<bool>(obs));
    obs->beat(2.5);
    obs->publish_self();
    // The monitor rewrites status.json on its own cadence; wait for a
    // "running" snapshot that has seen the beat.
    std::string doc;
    for (int i = 0; i < 200; ++i) {
      if (file_exists(obs->status_path())) {
        doc = slurp(obs->status_path());
        if (doc.find("\"running\"") != std::string::npos &&
            doc.find("\"beats\": 1") != std::string::npos)
          break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::string err;
    EXPECT_TRUE(json_validate(doc, &err)) << err << "\n" << doc;
    EXPECT_NE(doc.find("\"state\": \"running\""), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"run\": \"1+0 test\""), std::string::npos) << doc;
    obs->finish_rank();
    obs->finish_run(10.0);
    doc = slurp(obs->status_path());
    EXPECT_TRUE(json_validate(doc, &err)) << err;
    EXPECT_NE(doc.find("\"state\": \"finished\""), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"simulated_day\": 10"), std::string::npos) << doc;
  }
}

TEST(RunObserver, FlightRecorderDumpsOnceWithOpenSpans) {
  const std::string dir = testing::TempDir();
  Telemetry tel(full_opts());
  ScopedSession session(tel);
  ObservabilityOptions o;
  o.flight_recorder = true;
  o.status = true;
  o.dir = dir;
  {
    ScopedRankObserver obs(o, 0, 1, "dump test", 1.0);
    ASSERT_TRUE(static_cast<bool>(obs));
    tel.tracer().begin_region(par::Region::kOcean);
    tel.tracer().begin_span("stuck_here");
    obs->beat(0.5);
    EXPECT_TRUE(observe_abort("synthetic failure for the dump test"));
    EXPECT_FALSE(observe_abort("second abort must not re-dump"));
    tel.tracer().end_span();
    tel.tracer().end_region();

    const std::string path = RunObserver::last_postmortem_path();
    ASSERT_FALSE(path.empty());
    const std::string doc = slurp(path);
    std::string err;
    EXPECT_TRUE(json_validate(doc, &err)) << err;
    // The postmortem names the abort reason and the aborting rank's open
    // span, is Perfetto-loadable, and left no temporary behind.
    EXPECT_NE(doc.find("synthetic failure for the dump test"),
              std::string::npos);
    EXPECT_NE(doc.find("stuck_here"), std::string::npos);
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_FALSE(file_exists(path + ".tmp"));
    // The sibling counters file validates too.
    std::string cpath = path;
    cpath.replace(cpath.find(".trace.json"), std::string::npos,
                  ".counters.json");
    EXPECT_TRUE(json_validate(slurp(cpath), &err)) << err;
    // The final status snapshot records the abort.
    const std::string status = slurp(obs->status_path());
    EXPECT_TRUE(json_validate(status, &err)) << err;
    EXPECT_NE(status.find("\"state\": \"aborted\""), std::string::npos)
        << status;
  }
}

TEST(RunObserver, ProfilerSamplesInnermostOpenSpan) {
  Telemetry tel(full_opts());
  ScopedSession session(tel);
  ObservabilityOptions o;
  o.profile = true;
  o.profile_interval_seconds = 2e-4;
  {
    ScopedRankObserver obs(o, 0, 1, "profile test", 1.0);
    ASSERT_TRUE(static_cast<bool>(obs));
    tel.tracer().begin_region(par::Region::kOcean);
    // Busy-spin long enough for hundreds of samples to land.
    volatile double sink = 0.0;
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(120);
    while (std::chrono::steady_clock::now() < until) sink = sink + 1.0;
    tel.tracer().end_region();
    obs->publish_self();

    const auto prof = obs->profile_snapshot();
    ASSERT_FALSE(prof.empty());
    std::uint64_t ocean_samples = 0;
    for (const ProfileEntry& e : prof) {
      EXPECT_EQ(e.rank, 0);
      if (e.region == par::Region::kOcean && e.name == "ocean")
        ocean_samples += e.samples;
    }
    EXPECT_GT(ocean_samples, 50u);
    // The measured interval is close to (never much below) the nominal.
    EXPECT_GT(obs->profile_effective_interval(), 1e-4);
    EXPECT_LT(obs->profile_effective_interval(), 1e-2);
  }
}

}  // namespace
}  // namespace foam::telemetry
