// Lightweight precondition / invariant checking used across the library.
//
// WSF_CHECK is always on (model invariants are cheap relative to simulation
// work, and silently-corrupt schedules would invalidate every experiment);
// WSF_DCHECK compiles away in release builds and is used on hot paths.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace wsf {

/// Thrown when a WSF_CHECK / WSF_REQUIRE condition fails. Carries the failing
/// expression, source location, and an optional user message.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] inline void check_failed(const char* kind, const char* expr,
                                      const char* file, int line,
                                      const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}

// Builds the optional streamed message lazily, only on failure.
class CheckMessage {
 public:
  // User-provided, so CheckMessage{} skips value-initialization's zero fill
  // of the stream (a `rep stos` in every check's failure branch).
  CheckMessage() {}  // NOLINT(modernize-use-equals-default)
  template <typename T>
  CheckMessage& operator<<(const T& v) {
    os_ << v;
    return *this;
  }
  std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

}  // namespace detail
}  // namespace wsf

/// Always-on invariant check. Usage: WSF_CHECK(x > 0) or
/// WSF_CHECK(x > 0, "x was " << x).
#define WSF_CHECK(cond, ...)                                             \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::wsf::detail::check_failed(                                       \
          "WSF_CHECK", #cond, __FILE__, __LINE__,                        \
          (::wsf::detail::CheckMessage{} << "" __VA_ARGS__).str());      \
    }                                                                    \
  } while (0)

/// Precondition check on public API boundaries (same behaviour, distinct
/// label so failures read as caller errors rather than internal bugs).
#define WSF_REQUIRE(cond, ...)                                           \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::wsf::detail::check_failed(                                       \
          "WSF_REQUIRE", #cond, __FILE__, __LINE__,                      \
          (::wsf::detail::CheckMessage{} << "" __VA_ARGS__).str());      \
    }                                                                    \
  } while (0)

#ifndef NDEBUG
#define WSF_DCHECK(cond, ...) WSF_CHECK(cond, __VA_ARGS__)
#else
#define WSF_DCHECK(cond, ...) \
  do {                        \
  } while (0)
#endif
