#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>

namespace foam::telemetry {

namespace {

thread_local Telemetry* t_current = nullptr;

}  // namespace

const char* trace_level_name(TraceLevel level) {
  switch (level) {
    case TraceLevel::kOff:
      return "off";
    case TraceLevel::kRegions:
      return "regions";
    case TraceLevel::kFull:
      return "full";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// RankTrace
// ---------------------------------------------------------------------------

double RankTrace::region_total(par::Region r) const {
  // A region span is interned under its class's name; that tells it from
  // a named span opened outside every region (also depth 0, class kOther).
  const std::string_view name = par::region_name(r);
  double sum = 0.0;
  for (const SpanRec& s : spans)
    if (s.depth == 0 && s.region == r &&
        names[static_cast<std::size_t>(s.name_id)] == name)
      sum += s.t1 - s.t0;
  return sum;
}

bool RankTrace::has_nested() const {
  return std::any_of(spans.begin(), spans.end(),
                     [](const SpanRec& s) { return s.depth > 0; });
}

std::vector<double> serialize_trace(const RankTrace& t) {
  std::vector<double> out;
  std::size_t chars = 0;
  for (const std::string& n : t.names) chars += n.size();
  out.reserve(3 + t.names.size() + chars + t.spans.size() * 5);
  out.push_back(static_cast<double>(t.names.size()));
  for (const std::string& n : t.names) {
    out.push_back(static_cast<double>(n.size()));
    for (const char ch : n)
      out.push_back(static_cast<double>(static_cast<unsigned char>(ch)));
  }
  out.push_back(static_cast<double>(t.dropped));
  out.push_back(static_cast<double>(t.spans.size()));
  for (const SpanRec& s : t.spans) {
    out.push_back(static_cast<double>(s.name_id));
    out.push_back(static_cast<double>(static_cast<int>(s.region)));
    out.push_back(static_cast<double>(s.depth));
    out.push_back(s.t0);
    out.push_back(s.t1);
  }
  return out;
}

namespace {

/// Cursor over a gathered double stream with validated reads.
struct Reader {
  const double* d;
  std::size_t n;
  std::size_t pos = 0;

  double next(const char* what) {
    FOAM_REQUIRE(pos < n, "telemetry stream truncated reading " << what
                                                                << " at "
                                                                << pos);
    return d[pos++];
  }
  std::int64_t next_count(const char* what, std::int64_t max) {
    const double v = next(what);
    const auto i = static_cast<std::int64_t>(v);
    FOAM_REQUIRE(std::isfinite(v) && v == static_cast<double>(i) && i >= 0 &&
                     i <= max,
                 "telemetry stream: bad " << what << " value " << v);
    return i;
  }
  std::string next_string(const char* what) {
    const auto len = next_count(what, 4096);
    std::string s;
    s.reserve(static_cast<std::size_t>(len));
    for (std::int64_t i = 0; i < len; ++i) {
      const auto c = next_count("string char", 255);
      s.push_back(static_cast<char>(c));
    }
    return s;
  }
};

}  // namespace

RankTrace deserialize_trace(const double* data, std::size_t count) {
  Reader r{data, count};
  RankTrace t;
  const auto n_names = r.next_count("name count", 1 << 20);
  t.names.reserve(static_cast<std::size_t>(n_names));
  for (std::int64_t i = 0; i < n_names; ++i)
    t.names.push_back(r.next_string("name length"));
  t.dropped = static_cast<std::uint64_t>(
      r.next_count("dropped count", std::int64_t{1} << 62));
  const auto n_spans = r.next_count("span count", 1 << 28);
  t.spans.reserve(static_cast<std::size_t>(n_spans));
  for (std::int64_t i = 0; i < n_spans; ++i) {
    SpanRec s;
    s.name_id = static_cast<std::int32_t>(
        r.next_count("span name id", n_names - 1));
    s.region = static_cast<par::Region>(
        r.next_count("span region", par::kRegionCount - 1));
    s.depth = static_cast<std::int32_t>(r.next_count("span depth", 1 << 20));
    s.t0 = r.next("span t0");
    s.t1 = r.next("span t1");
    FOAM_REQUIRE(std::isfinite(s.t0) && std::isfinite(s.t1) && s.t1 >= s.t0,
                 "telemetry stream: bad span times [" << s.t0 << ", " << s.t1
                                                      << ")");
    t.spans.push_back(s);
  }
  FOAM_REQUIRE(r.pos == count,
               "telemetry stream: " << count - r.pos << " trailing values");
  return t;
}

std::vector<double> serialize_samples(
    const std::vector<std::pair<std::string, double>>& samples) {
  std::vector<double> out;
  out.push_back(static_cast<double>(samples.size()));
  for (const auto& [name, value] : samples) {
    out.push_back(static_cast<double>(name.size()));
    for (const char ch : name)
      out.push_back(static_cast<double>(static_cast<unsigned char>(ch)));
    out.push_back(value);
  }
  return out;
}

std::vector<std::pair<std::string, double>> deserialize_samples(
    const double* data, std::size_t count) {
  Reader r{data, count};
  std::vector<std::pair<std::string, double>> out;
  const auto n = r.next_count("sample count", 1 << 24);
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    std::string name = r.next_string("sample name length");
    const double v = r.next("sample value");
    out.emplace_back(std::move(name), v);
  }
  FOAM_REQUIRE(r.pos == count,
               "metric stream: " << count - r.pos << " trailing values");
  return out;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer(const TelemetryOptions& opts)
    : level_(opts.level), cap_(std::max<std::size_t>(opts.max_spans, 16)) {
  reset();
}

void Tracer::reset() {
  epoch_ = std::chrono::steady_clock::now();
  stack_.clear();
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
  region_s_.fill(0.0);
  update_leaf();
}

void Tracer::update_leaf() {
  // Relaxed publish (inside ProfileLeaf): the profiler only needs an
  // eventually-current view of "what is this rank doing", never ordering
  // with other state.
  leaf_.publish(stack_.empty()
                    ? 0
                    : pack_leaf(stack_.back().name_id, stack_.back().region));
}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::int32_t Tracer::intern(const char* name) {
  const std::string_view sv(name);
  const auto it = name_ids_.find(sv);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::int32_t>(names_.size());
  names_.emplace_back(sv);
  name_ids_.emplace(names_.back(), id);
  return id;
}

void Tracer::push_completed(const SpanRec& s) {
  if (ring_.size() < cap_) {
    ring_.push_back(s);
    return;
  }
  ring_[head_] = s;
  head_ = (head_ + 1) % cap_;
  ++dropped_;
}

par::Region Tracer::current_region() const {
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it)
    if (it->is_region) return it->region;
  return par::Region::kOther;
}

void Tracer::begin_region(par::Region r) {
  stack_.push_back({intern(par::region_name(r)), r, true, now()});
  update_leaf();
}

void Tracer::end_region() { finish_top(/*expect_region=*/true); }

void Tracer::begin_span(const char* name) {
  stack_.push_back({intern(name), current_region(), false, now()});
  update_leaf();
}

void Tracer::end_span() { finish_top(/*expect_region=*/false); }

void Tracer::instant(const char* name) {
  if (level_ == TraceLevel::kOff) return;
  const double t = now();
  push_completed({intern(name), current_region(),
                  static_cast<std::int32_t>(stack_.size()), t, t});
}

void Tracer::finish_top(bool expect_region) {
  if (stack_.empty()) return;
  FOAM_ASSERT(stack_.back().is_region == expect_region,
              "span begin/end kind mismatch (misnested instrumentation)");
  (void)expect_region;
  const Open e = stack_.back();
  stack_.pop_back();
  const double t = now();
  const bool record = e.is_region ? level_ >= TraceLevel::kRegions
                                  : level_ == TraceLevel::kFull;
  if (record)
    push_completed({e.name_id, e.region,
                    static_cast<std::int32_t>(stack_.size()), e.t0, t});
  if (e.is_region && stack_.empty())
    region_s_[static_cast<std::size_t>(e.region)] += t - e.t0;
  update_leaf();
}

std::vector<SpanRec> Tracer::spans() const {
  std::vector<SpanRec> out;
  out.reserve(ring_.size());
  if (ring_.size() < cap_ || head_ == 0) {
    out = ring_;
  } else {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  }
  return out;
}

RankTrace Tracer::trace(bool include_open) const {
  RankTrace t;
  t.names = names_;
  t.spans = spans();
  t.dropped = dropped_;
  if (include_open && !stack_.empty()) {
    // Open spans become as-if-ended-now records so a postmortem timeline
    // shows the work in flight at the moment of the dump.
    const double t1 = now();
    for (std::size_t i = 0; i < stack_.size(); ++i) {
      const Open& e = stack_[i];
      t.spans.push_back({e.name_id, e.region, static_cast<std::int32_t>(i),
                         e.t0, std::max(e.t0, t1)});
    }
  }
  return t;
}

std::vector<std::string> Tracer::open_span_names() const {
  std::vector<std::string> out;
  out.reserve(stack_.size());
  for (const Open& e : stack_)
    out.push_back(e.name_id >= 0 &&
                          e.name_id < static_cast<std::int32_t>(names_.size())
                      ? names_[static_cast<std::size_t>(e.name_id)]
                      : std::string("?"));
  return out;
}

// ---------------------------------------------------------------------------
// Session plumbing
// ---------------------------------------------------------------------------

Telemetry::Telemetry(const TelemetryOptions& opts) : tracer_(opts) {}

std::vector<std::pair<std::string, double>> Telemetry::snapshot() const {
  std::vector<std::pair<std::string, double>> out;
  metrics_.snapshot(out);
  comm_.snapshot(out);
  out.emplace_back("trace.spans_dropped",
                   static_cast<double>(tracer_.dropped()));
  return out;
}

Telemetry* current() { return t_current; }

ScopedSession::ScopedSession(Telemetry& t) : prev_(t_current) {
  t_current = &t;
}

ScopedSession::~ScopedSession() { t_current = prev_; }

ScopedSpan::ScopedSpan(const char* name) {
  Telemetry* t = t_current;
  if (t == nullptr) return;
  Tracer& tr = t->tracer();
  // Liveness pulse at every level — below kFull this is the span's only
  // side effect, and the only sub-region progress signal the watchdog has.
  tr.pulse();
  if (tr.level() == TraceLevel::kFull) {
    tracer_ = &tr;
    tr.begin_span(name);
  }
}

ScopedSpan::~ScopedSpan() {
  if (tracer_) tracer_->end_span();
}

void count(const char* name, std::uint64_t v) {
  if (Telemetry* t = t_current) t->metrics().counter(name).add(v);
}

void observe(const char* name, double v) {
  if (Telemetry* t = t_current) t->metrics().histogram(name).record(v);
}

void gauge_max(const char* name, double v) {
  if (Telemetry* t = t_current) t->metrics().gauge(name).record_max(v);
}

}  // namespace foam::telemetry
