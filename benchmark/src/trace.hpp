// In-memory span recorder for the traced run, written out as Chrome
// trace-event JSON (viewable in Perfetto) when the benchmark ends.
//
// Spans are recorded from the benchmark's own code, around its calls into
// the library; a workload passes a null Tracer* when tracing is off, so an
// untraced run pays one branch per would-be span.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace wsf_bench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< steady_clock, nanoseconds
  std::int64_t end_ns = 0;
  /// Track the span is drawn on: an OS thread, or a stream job slot.
  std::uint32_t track = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t job = 0;     ///< shared by every span of one job; 0 = none
};

struct SelfTime {
  std::string name;
  std::uint64_t spans = 0;
  double total_ms = 0;
  double self_ms = 0;
};

class Tracer {
 public:
  Tracer();

  /// Reserves a span id, so children can name a parent that has not
  /// finished yet.
  std::uint64_t open();
  /// Records a finished span under an id from open().
  void close(std::uint64_t id, const char* name, std::int64_t start_ns,
             std::int64_t end_ns, std::uint64_t parent = 0,
             std::uint64_t job = 0, std::uint32_t track = kThisThread);
  /// open() + close() for a span whose children are already recorded or
  /// that has none.
  std::uint64_t record(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t parent = 0,
                       std::uint64_t job = 0,
                       std::uint32_t track = kThisThread);

  /// Names a track that is not an OS thread (e.g. a job slot).
  void name_track(std::uint32_t track, std::string name);

  /// Per span name: count, total and self time. Self time is the span's
  /// duration minus the part of it its children cover.
  std::vector<SelfTime> self_times() const;

  /// Writes the Chrome trace-event JSON; returns false on an I/O error.
  bool write_chrome_json(const std::string& path) const;

  std::size_t size() const;

  static constexpr std::uint32_t kThisThread = ~std::uint32_t{0};

 private:
  std::uint32_t track_of_this_thread();

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::map<std::thread::id, std::uint32_t> thread_tracks_;
  std::map<std::uint32_t, std::string> track_names_;
  std::int64_t epoch_ns_ = 0;
};

/// Records one span from construction to destruction when `tracer` is set.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent = 0,
             std::uint64_t job = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when tracing is off), for use as a child's parent.
  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t job_;
  std::uint64_t id_ = 0;
  std::int64_t start_ns_ = 0;
};

}  // namespace wsf_bench
