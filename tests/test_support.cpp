#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/move_only_function.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace wsf::support {
namespace {

// ---- check macros ----

TEST(Check, PassesOnTrue) { EXPECT_NO_THROW(WSF_CHECK(1 + 1 == 2)); }

TEST(Check, ThrowsWithMessage) {
  try {
    const int x = 3;
    WSF_CHECK(x == 4, "x was " << x);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("x was 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("x == 4"), std::string::npos);
  }
}

TEST(Check, RequireThrows) {
  EXPECT_THROW(WSF_REQUIRE(false), CheckError);
}

// ---- rng ----

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(13);
    EXPECT_LT(v, 13u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BelowRejectsZero) {
  Xoshiro256 rng(1);
  EXPECT_THROW(rng.below(0), CheckError);
}

TEST(Rng, Uniform01InUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, RangeInclusive) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, DerivedSeedsDecorrelated) {
  const auto s1 = derive_seed(100, 0);
  const auto s2 = derive_seed(100, 1);
  EXPECT_NE(s1, s2);
  EXPECT_EQ(derive_seed(100, 0), s1);  // stable
}

// ---- stats ----

TEST(Stats, AccumulatorBasics) {
  Accumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, AccumulatorEmpty) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 7.0);
  }
  const auto fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 7.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Stats, LogLogFitRecoversExponent) {
  std::vector<double> xs, ys;
  for (double x : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    xs.push_back(x);
    ys.push_back(5.0 * x * x);  // y = 5 x^2
  }
  const auto fit = fit_loglog(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
}

TEST(Stats, LogLogRejectsNonPositive) {
  EXPECT_THROW(fit_loglog({1.0, 0.0}, {1.0, 1.0}), CheckError);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

// ---- cli ----

TEST(Cli, ParsesAllKinds) {
  ArgParser args("test");
  auto& i = args.add_int("count", 5, "a count");
  auto& d = args.add_double("ratio", 0.5, "a ratio");
  auto& s = args.add_string("name", "x", "a name");
  auto& bl = args.add_bool("verbose", false, "a switch");
  const char* argv[] = {"prog", "--count=7", "--ratio", "2.5",
                        "--name=abc", "--verbose"};
  ASSERT_TRUE(args.parse(6, argv));
  EXPECT_EQ(i.value, 7);
  EXPECT_DOUBLE_EQ(d.value, 2.5);
  EXPECT_EQ(s.value, "abc");
  EXPECT_TRUE(bl.value);
}

TEST(Cli, DefaultsSurviveEmptyArgv) {
  ArgParser args("test");
  auto& i = args.add_int("count", 5, "a count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(args.parse(1, argv));
  EXPECT_EQ(i.value, 5);
}

TEST(Cli, RejectsUnknownFlag) {
  ArgParser args("test");
  args.add_int("count", 5, "a count");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(args.parse(2, argv), CheckError);
}

TEST(Cli, RejectsBadInteger) {
  ArgParser args("test");
  args.add_int("count", 5, "a count");
  const char* argv[] = {"prog", "--count=abc"};
  EXPECT_THROW(args.parse(2, argv), CheckError);
}

TEST(Cli, RejectsDuplicateRegistration) {
  ArgParser args("test");
  args.add_int("count", 5, "a count");
  EXPECT_THROW(args.add_bool("count", false, "dup"), CheckError);
}

// ---- table ----

TEST(Table, AlignsAndRenders) {
  Table t({"name", "value"});
  t.row().add("alpha").add(std::int64_t{42});
  t.row().add("b").add(3.25);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("3.25"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.row().add(std::int64_t{1}).add(std::int64_t{2});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, CsvFieldQuotingRules) {
  EXPECT_EQ(csv_field("plain"), "plain");
  EXPECT_EQ(csv_field(""), "");
  EXPECT_EQ(csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_field("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(csv_field("cr\rhere"), "\"cr\rhere\"");
  EXPECT_EQ(csv_line({"a,b", "c"}), "\"a,b\",c\n");
  // A lone empty field is quoted so the record is not a blank line.
  EXPECT_EQ(csv_line({""}), "\"\"\n");
}

TEST(Table, SingleColumnMissingCellRoundTrips) {
  Table t({"only"});
  t.row().add(std::numeric_limits<double>::quiet_NaN());
  t.row().add("x");
  const std::string csv = t.to_csv();
  EXPECT_EQ(csv, "only\n\"\"\nx\n");
  const Table back = Table::from_csv(csv);
  EXPECT_EQ(back.rows(), t.rows());
}

TEST(Table, CsvQuotesCellsWithCommas) {
  // The seed emitter replaced ',' with ';' — silently corrupting any cell
  // with an embedded comma. RFC-4180 quoting keeps the bytes.
  Table t({"family", "note"});
  t.row().add("fig2,fig4").add("a \"quoted\" word");
  EXPECT_EQ(t.to_csv(),
            "family,note\n\"fig2,fig4\",\"a \"\"quoted\"\" word\"\n");
}

TEST(Table, CsvRoundTripsQuotedCells) {
  Table t({"name", "value", "note"});
  t.row().add("alpha,beta").add(std::int64_t{1}).add("say \"hi\"");
  t.row().add("two\nlines").add(2.5).add("");  // missing cell round-trips
  t.row().add(",,").add(-3.75).add("\"");
  const std::string csv = t.to_csv();
  const Table back = Table::from_csv(csv);
  EXPECT_EQ(back.headers(), t.headers());
  EXPECT_EQ(back.rows(), t.rows());
  EXPECT_EQ(back.to_csv(), csv);
}

TEST(Table, FromCsvAcceptsCrlfBareCrAndMissingFinalNewline) {
  const Table t = Table::from_csv("a,b\r\n1,2\r3,4");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.rows()[0], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(t.rows()[1], (std::vector<std::string>{"3", "4"}));
}

TEST(Table, FromCsvSkipsEmptyLines) {
  const Table t = Table::from_csv("a,b\n\n1,2\n\n\n3,4\n\n");
  ASSERT_EQ(t.num_rows(), 2u);
}

TEST(Table, FromCsvAllowsShortRowsButNotLongOnes) {
  const Table t = Table::from_csv("a,b,c\n1,2\n");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0].size(), 2u);
  EXPECT_THROW(Table::from_csv("a,b\n1,2,3\n"), CheckError);
}

TEST(Table, FromCsvRejectsMalformed) {
  EXPECT_THROW(Table::from_csv(""), CheckError);
  EXPECT_THROW(Table::from_csv("a,b\n\"unterminated"), CheckError);
  EXPECT_THROW(Table::from_csv("a,b\n\"x\"y,2\n"), CheckError);
}

TEST(Table, MissingCellRendering) {
  Table t({"a", "b"});
  t.row().add(std::numeric_limits<double>::quiet_NaN()).add(1.5);
  EXPECT_EQ(t.rows()[0][0], "");
  // Aligned output renders the em dash, CSV an empty field, JSON null.
  EXPECT_NE(t.to_string().find("—"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "a,b\n,1.5\n");
  EXPECT_NE(t.to_json().find("\"a\": null"), std::string::npos);
  EXPECT_NE(t.to_json().find("\"b\": 1.5"), std::string::npos);
}

TEST(Table, AddRowBulkAppends) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), CheckError);
}

TEST(Table, RejectsOverfullRow) {
  Table t({"a"});
  t.row().add("x");
  EXPECT_THROW(t.add("y"), CheckError);
}

TEST(Table, FormatDoubleTrims) {
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(2.5), "2.5");
  EXPECT_EQ(format_double(2.5001), "2.5001");
}

// ---- MoveOnlyFunction ----

using IntFn = MoveOnlyFunction<int(int)>;

/// Counts the destructions of live instances; a moved-from one counts
/// nothing, so a capture moved along a chain is counted once.
struct Tracked {
  explicit Tracked(int* destroyed) : destroyed(destroyed) {}
  Tracked(Tracked&& other) noexcept
      : destroyed(std::exchange(other.destroyed, nullptr)) {}
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() {
    if (destroyed != nullptr) ++*destroyed;
  }
  int* destroyed;
};

/// Adds `base` to its argument. kPadWords decides the storage: 0 fits
/// MoveOnlyFunction's inline buffer, 8 (64 bytes) goes on the heap.
template <std::size_t kPadWords>
struct AddClosure {
  Tracked tracked;
  int base = 0;
  std::array<std::uint64_t, kPadWords> pad{};
  int operator()(int x) const { return base + x; }
};

template <typename Closure>
class MoveOnlyFunctionStorage : public ::testing::Test {};
using ClosureKinds = ::testing::Types<AddClosure<0>, AddClosure<8>>;
struct ClosureKindNames {
  template <typename Closure>
  static std::string GetName(int /*index*/) {
    return std::is_same_v<Closure, AddClosure<0>> ? "Inline" : "Heap";
  }
};
TYPED_TEST_SUITE(MoveOnlyFunctionStorage, ClosureKinds, ClosureKindNames);

TYPED_TEST(MoveOnlyFunctionStorage, StorageFollowsClosureSize) {
  EXPECT_EQ(IntFn::stores_inline<TypeParam>,
            (std::is_same_v<TypeParam, AddClosure<0>>));
}

TYPED_TEST(MoveOnlyFunctionStorage, CallReturnsTheClosuresResult) {
  int destroyed = 0;
  IntFn f = TypeParam{Tracked(&destroyed), 40};
  EXPECT_EQ(f(2), 42);
  EXPECT_EQ(f(-40), 0);
}

TYPED_TEST(MoveOnlyFunctionStorage, CaptureIsDestroyedOnceAcrossMoves) {
  int destroyed = 0;
  {
    IntFn a = TypeParam{Tracked(&destroyed), 1};
    IntFn b(std::move(a));
    IntFn c;
    c = std::move(b);
    IntFn d = std::move(c);
    EXPECT_EQ(destroyed, 0);
    EXPECT_EQ(d(1), 2);
  }
  EXPECT_EQ(destroyed, 1);
  // Assigning over a live function destroys its capture, once.
  int replaced = 0;
  IntFn e = TypeParam{Tracked(&replaced), 1};
  e = TypeParam{Tracked(&destroyed), 2};
  EXPECT_EQ(replaced, 1);
  EXPECT_EQ(e(1), 3);
}

TYPED_TEST(MoveOnlyFunctionStorage, MovedFromFunctionTestsFalse) {
  int destroyed = 0;
  IntFn a = TypeParam{Tracked(&destroyed), 5};
  EXPECT_TRUE(a);
  IntFn b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): the state under test
  EXPECT_TRUE(b);
  EXPECT_THROW(a(0), CheckError);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b(0), 5);
  EXPECT_FALSE(IntFn{});
}

TEST(MoveOnlyFunction, UniquePtrCaptureWorksInlineAndOnTheHeap) {
  auto small = [p = std::make_unique<int>(5)](int x) { return *p + x; };
  auto large = [p = std::make_unique<int>(6),
                pad = std::array<std::uint64_t, 8>{}](int x) {
    return *p + x + static_cast<int>(pad[0]);
  };
  static_assert(IntFn::stores_inline<decltype(small)>);
  static_assert(!IntFn::stores_inline<decltype(large)>);
  IntFn a = std::move(small);
  IntFn b = std::move(large);
  IntFn a2 = std::move(a);
  IntFn b2 = std::move(b);
  EXPECT_EQ(a2(1), 6);
  EXPECT_EQ(b2(1), 7);
}

TEST(MoveOnlyFunction, ThrowingMoveClosureStillStoresAndCalls) {
  struct ThrowingMove {
    ThrowingMove() = default;
    // Not noexcept: the wrapper must not move it during its own moves.
    ThrowingMove(ThrowingMove&& other) noexcept(false) : value(other.value) {}
    int value = 9;
    int operator()(int x) const { return value + x; }
  };
  static_assert(!IntFn::stores_inline<ThrowingMove>);
  IntFn f = ThrowingMove{};
  IntFn g = std::move(f);
  EXPECT_FALSE(f);  // NOLINT(bugprone-use-after-move): the state under test
  EXPECT_EQ(g(1), 10);
}

}  // namespace
}  // namespace wsf::support
