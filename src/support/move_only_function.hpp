// Minimal move-only type-erased callable (std::move_only_function is C++23;
// this is the subset the runtime needs). Futures are move-only, so task
// closures that capture them cannot live in std::function.
//
// Storage: a closure of at most four pointers whose move constructor is
// noexcept lives inline, so wrapping it allocates nothing (the scheduler's
// fiber entry closures, which capture one pointer, are such closures).
// Anything larger, over-aligned or with a throwing move goes on the heap, and
// moving the wrapper then only moves the pointer. A moved-from wrapper is
// empty either way.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "support/check.hpp"

namespace wsf::support {

template <typename Signature>
class MoveOnlyFunction;

template <typename R, typename... Args>
class MoveOnlyFunction<R(Args...)> {
 public:
  /// Bytes of inline closure storage.
  static constexpr std::size_t kInlineBytes = 4 * sizeof(void*);

  /// True when a closure of type F is stored inline (no allocation).
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  MoveOnlyFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, MoveOnlyFunction>>>
  MoveOnlyFunction(F&& f)  // NOLINT(google-explicit-constructor)
  {
    using D = std::decay_t<F>;
    if constexpr (stores_inline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kOps<D>;
    } else {
      ::new (static_cast<void*>(storage_))
          Boxed<D>{std::make_unique<D>(std::forward<F>(f))};
      ops_ = &kOps<Boxed<D>>;
    }
  }

  MoveOnlyFunction(MoveOnlyFunction&& other) noexcept { take(other); }
  MoveOnlyFunction& operator=(MoveOnlyFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  MoveOnlyFunction(const MoveOnlyFunction&) = delete;
  MoveOnlyFunction& operator=(const MoveOnlyFunction&) = delete;
  ~MoveOnlyFunction() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    WSF_REQUIRE(ops_ != nullptr, "call of an empty MoveOnlyFunction");
    return ops_->call(storage_, std::forward<Args>(args)...);
  }

 private:
  /// A closure that cannot live inline, moved to the heap; the box itself
  /// is stored inline.
  template <typename F>
  struct Boxed {
    std::unique_ptr<F> fn;
    R operator()(Args... args) { return (*fn)(std::forward<Args>(args)...); }
  };

  /// What the wrapper can do with its storage, per stored closure type.
  struct Ops {
    R (*call)(unsigned char* storage, Args&&... args);
    /// Move-constructs the closure into `to` and destroys it in `from`.
    void (*relocate)(unsigned char* from, unsigned char* to) noexcept;
    void (*destroy)(unsigned char* storage) noexcept;
  };

  template <typename F>
  static F& stored(unsigned char* s) {
    return *std::launder(reinterpret_cast<F*>(s));
  }

  template <typename F>
  static constexpr Ops kOps{
      [](unsigned char* s, Args&&... args) -> R {
        return stored<F>(s)(std::forward<Args>(args)...);
      },
      [](unsigned char* from, unsigned char* to) noexcept {
        ::new (static_cast<void*>(to)) F(std::move(stored<F>(from)));
        stored<F>(from).~F();
      },
      [](unsigned char* s) noexcept { stored<F>(s).~F(); }};

  void take(MoveOnlyFunction& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(other.storage_, storage_);
    ops_ = std::exchange(other.ops_, nullptr);
  }
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(storage_);
  }

  alignas(void*) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace wsf::support
