#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace foambench {

namespace {
const auto kEpoch = std::chrono::steady_clock::now();
}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

int SpanLog::begin(int rank, int run, const char* name) {
  auto& list = spans_[rank];
  auto& open = open_[rank];
  Span s;
  s.name = name;
  s.rank = rank;
  s.run = run;
  s.parent = open.empty() ? -1 : open.back();
  s.t0 = now_s();
  list.push_back(std::move(s));
  const int id = static_cast<int>(list.size()) - 1;
  open.push_back(id);
  return id;
}

void SpanLog::end(int rank, int id) {
  spans_[rank][id].t1 = now_s();
  auto& open = open_[rank];
  if (!open.empty() && open.back() == id) open.pop_back();
}

void SpanLog::attach(int rank, int run, int parent,
                     const foam::telemetry::RankTrace& trace,
                     double offset_s) {
  auto& list = spans_[rank];
  // Candidate parents: the bench span and its descendants, then the
  // program spans as they are added, innermost chosen by containment.
  std::vector<int> candidates = {parent};
  for (int i = parent + 1; i < static_cast<int>(list.size()); ++i)
    if (std::find(candidates.begin(), candidates.end(), list[i].parent) !=
        candidates.end())
      candidates.push_back(i);
  std::vector<foam::telemetry::SpanRec> recs = trace.spans;
  // Outer spans first, so every span's container is already placed.
  std::sort(recs.begin(), recs.end(), [](const auto& a, const auto& b) {
    return a.t0 != b.t0 ? a.t0 < b.t0 : a.t1 > b.t1;
  });
  for (const auto& r : recs) {
    Span s;
    s.name = trace.names.at(static_cast<std::size_t>(r.name_id));
    s.rank = rank;
    s.run = run;
    s.program = true;
    s.t0 = r.t0 + offset_s;
    s.t1 = r.t1 + offset_s;
    int best = parent;
    for (const int c : candidates) {
      const Span& p = list[c];
      if (p.t0 <= s.t0 && s.t1 <= p.t1 &&
          (p.t1 - p.t0) <= (list[best].t1 - list[best].t0))
        best = c;
    }
    s.parent = best;
    list.push_back(std::move(s));
    candidates.push_back(static_cast<int>(list.size()) - 1);
  }
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::map<std::string, double> self;
  for (const auto& list : spans_) {
    std::vector<double> child(list.size(), 0.0);
    for (const Span& s : list)
      if (s.parent >= 0) child[s.parent] += s.t1 - s.t0;
    for (std::size_t i = 0; i < list.size(); ++i)
      self[list[i].name] += (list[i].t1 - list[i].t0) - child[i];
  }
  return self;
}

void SpanLog::write_json(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("[\n", f);
  bool first = true;
  for (const auto& list : spans_)
    for (const Span& s : list) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"rank\":%d,\"run\":%d,\"parent\":%d,"
                   "\"program\":%s,\"t0\":%.9f,\"t1\":%.9f}",
                   first ? "" : ",\n", s.name.c_str(), s.rank, s.run,
                   s.parent, s.program ? "true" : "false", s.t0, s.t1);
      first = false;
    }
  std::fputs("\n]\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace foambench
