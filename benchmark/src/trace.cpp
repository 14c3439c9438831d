#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "bench.hpp"

namespace wsf_bench {

Tracer::Tracer() : epoch_ns_(now_ns()) {
  track_of_this_thread();  // the constructing (client) thread is track 0
}

std::uint64_t Tracer::open() {
  const std::lock_guard lock(mu_);
  return next_id_++;
}

std::uint32_t Tracer::track_of_this_thread() {
  const auto [it, inserted] = thread_tracks_.try_emplace(
      std::this_thread::get_id(),
      static_cast<std::uint32_t>(thread_tracks_.size()));
  if (inserted)
    track_names_[it->second] =
        it->second == 0 ? "client" : "thread " + std::to_string(it->second);
  return it->second;
}

void Tracer::close(std::uint64_t id, const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::uint64_t parent,
                   std::uint64_t job, std::uint32_t track) {
  const std::lock_guard lock(mu_);
  if (track == kThisThread) track = track_of_this_thread();
  spans_.push_back({name, start_ns, std::max(start_ns, end_ns), track, id,
                    parent, job});
}

std::uint64_t Tracer::record(const char* name, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint64_t parent,
                             std::uint64_t job, std::uint32_t track) {
  const std::uint64_t id = open();
  close(id, name, start_ns, end_ns, parent, job, track);
  return id;
}

void Tracer::name_track(std::uint32_t track, std::string name) {
  const std::lock_guard lock(mu_);
  track_names_[track] = std::move(name);
}

std::size_t Tracer::size() const {
  const std::lock_guard lock(mu_);
  return spans_.size();
}

std::vector<SelfTime> Tracer::self_times() const {
  const std::lock_guard lock(mu_);
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) index[spans_[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_) {
    const auto p = index.find(s.parent);
    if (s.parent != 0 && p != index.end())
      kids[p->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [a, b] : iv) {
      const std::int64_t lo = std::max(a, cursor);
      const std::int64_t hi = std::min(b, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    ++t.spans;
    t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    t.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::lock_guard lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const auto& [track, name] : track_names_) {
    sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << track
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << name
        << "\"}}";
  }
  char buf[96];
  for (const Span& s : spans_) {
    sep();
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - epoch_ns_) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track << ",\"name\":\""
        << s.name << "\",\"cat\":\"wsf-bench\"," << buf
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"job\":" << s.job << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent,
                       std::uint64_t job)
    : tracer_(tracer), name_(name), parent_(parent), job_(job) {
  if (tracer_) {
    id_ = tracer_->open();
    start_ns_ = now_ns();
  }
}

ScopedSpan::~ScopedSpan() {
  if (tracer_) tracer_->close(id_, name_, start_ns_, now_ns(), parent_, job_);
}

}  // namespace wsf_bench
