#include "exp/presets.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/bounds.hpp"
#include "exp/analysis.hpp"
#include "support/check.hpp"

namespace wsf::exp {

namespace an = analysis;

namespace {

using Kind = PresetClaim::Kind;

// The sweep identity columns: rows agreeing on all of them but one axis are
// the same experiment at a different point of that axis.
const std::vector<std::string>& identity_columns() {
  static const std::vector<std::string> cols = {
      "backend", "family", "size",  "size2", "cache_lines", "layout",
      "procs",   "policy", "touch_enable", "steal", "victim"};
  return cols;
}

GraphAxis axis(const std::string& family, std::uint32_t size,
               std::uint32_t size2, std::vector<std::uint32_t> sizes = {}) {
  graphs::RegistryParams params;
  params.size = size;
  params.size2 = size2;
  return {family, params, std::move(sizes)};
}

SweepSpec future_first(std::vector<GraphAxis> graphs,
                       std::vector<std::uint32_t> procs,
                       std::uint64_t seeds) {
  SweepSpec spec;
  spec.graphs = std::move(graphs);
  spec.procs = std::move(procs);
  spec.policies = {core::ForkPolicy::FutureFirst};
  spec.cache_lines = {16};
  spec.stall_prob = 0.2;
  spec.seeds = seeds;
  return spec;
}

PresetClaim at_most(std::string num, std::string den, double limit,
                    std::vector<std::string> families = {}) {
  return {Kind::AtMost, std::move(num), std::move(den), limit, "",
          std::move(families)};
}

PresetClaim above(std::string column, double limit,
                  std::vector<std::string> families) {
  return {Kind::Above, std::move(column), "", limit, "",
          std::move(families)};
}

PresetClaim exceeds(std::string lhs, std::string rhs,
                    std::vector<std::string> families) {
  return {Kind::Exceeds, std::move(lhs), std::move(rhs), 0, "",
          std::move(families)};
}

PresetClaim not_growing(std::string num, std::string den, std::string along) {
  return {Kind::NotGrowing, std::move(num), std::move(den), 1.5,
          std::move(along), {}};
}

// The Theorem 8/12/16 upper bounds as claims: measured / bound stays far
// below 1 (the bounds drop their constants, so "≪ 1" is the shape check).
std::vector<PresetClaim> upper_bound_claims() {
  return {at_most("mean_deviations", "deviation_bound", 0.05),
          at_most("mean_additional_misses", "miss_bound", 0.05)};
}

const std::vector<std::string>& structured_families() {
  static const std::vector<std::string> names = {
      "fig4",     "fig5a", "fig5b",    "fig6a",
      "fig7a",    "fig8",  "forkjoin", "fib",
      "pipeline", "future-chain", "random-single-touch",
      "random-local-touch"};
  return names;
}

std::vector<Preset> make_presets() {
  std::vector<Preset> out;

  {
    Preset p;
    p.name = "thm8";
    p.title =
        "Theorem 8: future-first work stealing on structured single-touch "
        "computations takes O(P*T^2) deviations, O(C*P*T^2) additional "
        "misses and O(P*T) steals; the measured/bound ratios stay far below "
        "1 and stop growing with P and with the DAG size";
    p.full = future_first({axis("random-single-touch", 0, 0,
                                {10, 20, 40, 80, 160})},
                          {2, 4, 8, 16}, 10);
    p.smoke = future_first({axis("random-single-touch", 0, 0, {10, 40, 80})},
                           {2, 4, 8, 16}, 4);
    p.derive = with_bound_ratios;
    p.claims = upper_bound_claims();
    p.claims.push_back(at_most("mean_steals", "steal_bound", 0.5));
    p.claims.push_back(not_growing("mean_steals", "steal_bound", "procs"));
    p.claims.push_back(
        not_growing("mean_deviations", "deviation_bound", "procs"));
    p.claims.push_back(
        not_growing("mean_deviations", "deviation_bound", "size"));
    out.push_back(std::move(p));
  }
  {
    Preset p;
    p.name = "abp";
    p.title =
        "Arora-Blumofe-Plaxton (Section 3), the steal bound Theorem 8's "
        "proof builds on: parsimonious work stealing takes O(P*T) steals "
        "on fork-join, fib, single-touch and pipeline DAGs; steals / (P*T) "
        "stays far below 1 and stops growing with P";
    const auto spec = [](std::vector<GraphAxis> graphs,
                         std::uint64_t seeds) {
      SweepSpec s = future_first(std::move(graphs), {2, 4, 8, 16}, seeds);
      s.cache_lines = {0};
      s.stall_prob = 0.1;
      return s;
    };
    p.full = spec({axis("forkjoin", 8, 2), axis("fib", 16, 0),
                   axis("random-single-touch", 60, 0),
                   axis("pipeline", 6, 32)},
                  10);
    p.smoke = spec({axis("forkjoin", 6, 2), axis("fib", 12, 0),
                    axis("random-single-touch", 30, 0),
                    axis("pipeline", 4, 16)},
                   4);
    p.derive = with_bound_ratios;
    p.claims = {at_most("mean_steals", "steal_bound", 0.5),
                not_growing("mean_steals", "steal_bound", "procs")};
    out.push_back(std::move(p));
  }
  {
    Preset p;
    p.name = "thm12";
    p.title =
        "Theorem 12: structured local-touch computations (pipelines, random "
        "multi-future producers) keep the O(P*T^2) / O(C*P*T^2) bounds "
        "under future-first";
    p.full = future_first({axis("pipeline", 0, 8, {2, 4, 8}),
                           axis("pipeline", 0, 32, {2, 4, 8}),
                           axis("random-local-touch", 0, 0, {20, 80})},
                          {2, 8}, 10);
    p.smoke = future_first({axis("pipeline", 0, 8, {2, 4}),
                            axis("random-local-touch", 0, 0, {10, 20})},
                           {2, 8}, 4);
    p.derive = with_bound_ratios;
    p.claims = upper_bound_claims();
    out.push_back(std::move(p));
  }
  {
    Preset p;
    p.name = "thm16";
    p.title =
        "Theorem 16: single-touch computations whose side-effect futures "
        "are touched only by the super final node (Definition 13; size2 = "
        "percent of such threads) keep the O(P*T^2) / O(C*P*T^2) bounds";
    std::vector<GraphAxis> full, smoke;
    for (const std::uint32_t pct : {0u, 20u, 50u, 80u})
      full.push_back(axis("random-super-final", 60, pct));
    for (const std::uint32_t pct : {0u, 50u})
      smoke.push_back(axis("random-super-final", 20, pct));
    p.full = future_first(std::move(full), {8}, 10);
    p.smoke = future_first(std::move(smoke), {8}, 4);
    p.derive = with_bound_ratios;
    p.claims = upper_bound_claims();
    out.push_back(std::move(p));
  }
  {
    Preset p;
    p.name = "policy";
    p.title =
        "Sections 5.1 vs 5.2: on the Theorem 10 constructions parent-first "
        "pays more deviations and more additional misses than future-first "
        "under the same random schedules";
    const auto spec = [](std::vector<GraphAxis> graphs,
                         std::uint64_t seeds) {
      SweepSpec s = future_first(std::move(graphs), {4}, seeds);
      s.policies = {core::ForkPolicy::FutureFirst,
                    core::ForkPolicy::ParentFirst};
      s.stall_prob = 0.25;
      return s;
    };
    p.full = spec({axis("forkjoin", 7, 2), axis("fib", 14, 0),
                   axis("future-chain", 24, 2), axis("pipeline", 4, 24),
                   axis("fig7a", 32, 0), axis("fig7b", 16, 32),
                   axis("fig8", 4, 16), axis("random-single-touch", 40, 0),
                   axis("random-local-touch", 40, 0)},
                  12);
    p.smoke = spec({axis("forkjoin", 5, 2), axis("fig7a", 16, 0),
                    axis("fig7b", 8, 16), axis("fig8", 3, 8),
                    axis("random-single-touch", 10, 0)},
                   4);
    p.derive = policy_contrast;
    const std::vector<std::string> thm10 = {"fig7a", "fig7b", "fig8"};
    p.claims = {exceeds("parent-first_deviations", "future-first_deviations",
                        thm10),
                exceeds("parent-first_misses", "future-first_misses", thm10)};
    out.push_back(std::move(p));
  }
  {
    Preset p;
    p.name = "fig3";
    p.title =
        "Figures 3 vs 4 and the Section 7 ablation: no schedule checks a "
        "touch before its future thread is spawned in a structured "
        "computation, while forking consumers before their producers "
        "(unstructured-mix) does";
    const auto spec = [](std::uint32_t size, std::uint64_t seeds) {
      std::vector<GraphAxis> graphs;
      for (const std::string& family : structured_families())
        graphs.push_back(axis(family, family == "fig4" ? 8 : size, 4));
      // 24 producer/consumer pairs, half forked consumer-first.
      graphs.push_back(axis("unstructured-mix", 24, 16));
      SweepSpec s;
      s.graphs = std::move(graphs);
      s.procs = {4};
      s.policies = {core::ForkPolicy::FutureFirst,
                    core::ForkPolicy::ParentFirst};
      s.stall_prob = 0.3;
      s.seeds = seeds;
      return s;
    };
    p.full = spec(5, 20);
    p.smoke = spec(4, 6);
    p.derive = with_bound_ratios;
    p.claims = {at_most("mean_premature_touches", "", 0,
                        structured_families()),
                above("mean_premature_touches", 0, {"unstructured-mix"})};
    out.push_back(std::move(p));
  }
  return out;
}

// A row's checked value (numerator - denominator for Exceeds); NaN when
// the row is not covered.
double claim_value(const PresetClaim& c, const an::RowView& row) {
  const double num = row.num(c.numerator);
  if (c.denominator.empty()) return num;
  const double den = row.num(c.denominator);
  if (c.kind == Kind::Exceeds) return num - den;
  return den == 0 ? std::nan("") : num / den;
}

bool covers(const PresetClaim& c, const an::RowView& row) {
  return c.families.empty() ||
         std::find(c.families.begin(), c.families.end(),
                   row.get("family")) != c.families.end();
}

// "family=fig8 size=3 …" over the identity columns present, minus `except`.
std::string row_label(const support::Table& t, const an::RowView& row,
                      const std::string& except = "") {
  std::string label;
  for (const std::string& col : identity_columns()) {
    if (col == except || !t.has_column(col)) continue;
    label += (label.empty() ? "" : " ") + col + "=" + row.get(col);
  }
  return label;
}

}  // namespace

std::string describe(const PresetClaim& c) {
  const std::string limit = support::format_double(c.limit);
  std::string s = c.numerator;
  if (c.kind == Kind::Exceeds) {
    s += " > " + c.denominator;
  } else if (!c.denominator.empty()) {
    s += " / " + c.denominator;
  }
  switch (c.kind) {
    case Kind::AtMost:
      s += " <= " + limit;
      break;
    case Kind::Above:
      s += " > " + limit;
      break;
    case Kind::Exceeds:
      break;
    case Kind::NotGrowing:
      s += " at the largest " + c.axis + " <= " + limit +
           "x its max at smaller " + c.axis;
      break;
  }
  std::string families;
  for (const std::string& f : c.families)
    families += (families.empty() ? "" : ", ") + f;
  return s + " [" + (families.empty() ? "every row" : families) + "]";
}

std::string check_claim(const PresetClaim& c, const support::Table& t) {
  for (const std::string& col : {c.numerator, c.denominator, c.axis,
                                 std::string("family")}) {
    if (!col.empty() && !t.has_column(col))
      return "table has no column '" + col + "'";
  }

  std::size_t covered = 0;
  // NotGrowing: (axis value, checked value) pairs of the rows that agree
  // on every identity column but the axis.
  std::map<std::string, std::vector<std::pair<double, double>>> groups;
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    const an::RowView row(t, r);
    if (!covers(c, row)) continue;
    const double v = claim_value(c, row);
    if (std::isnan(v)) continue;
    ++covered;
    if (c.kind == Kind::NotGrowing) {
      groups[row_label(t, row, c.axis)].emplace_back(row.num(c.axis), v);
      continue;
    }
    const bool holds = c.kind == Kind::AtMost  ? v <= c.limit
                       : c.kind == Kind::Above ? v > c.limit
                                               : v > 0;
    if (!holds) {
      return row_label(t, row) +
             (c.kind == Kind::Exceeds ? ": difference " : ": value ") +
             support::format_double(v);
    }
  }
  if (covered == 0) return "no row covered by the claim";
  if (c.kind != Kind::NotGrowing) return "";

  std::size_t compared = 0;
  for (auto& [key, points] : groups) {
    if (points.size() < 2) continue;
    ++compared;
    std::sort(points.begin(), points.end());
    double before = 0;
    for (std::size_t i = 0; i + 1 < points.size(); ++i)
      before = std::max(before, points[i].second);
    const double last = points.back().second;
    if (last > c.limit * before) {
      return key + ": " + support::format_double(last) + " at " + c.axis +
             "=" + support::format_double(points.back().first) +
             " vs max " + support::format_double(before) + " below it";
    }
  }
  if (compared == 0) return "no group has two points along '" + c.axis + "'";
  return "";
}

const std::vector<Preset>& presets() {
  static const std::vector<Preset> all = make_presets();
  return all;
}

const Preset& find_preset(const std::string& name) {
  std::string known;
  for (const Preset& p : presets()) {
    if (p.name == name) return p;
    known += (known.empty() ? "" : ", ") + p.name;
  }
  WSF_REQUIRE(false, "unknown preset '" << name << "' (known: " << known
                                        << ")");
  return presets().front();
}

support::Table with_bound_ratios(const support::Table& sweep) {
  // procs, span and cache_lines are integer cells, so the round trip
  // through the rendered table is exact.
  const auto u = [](const an::RowView& r, const char* column) {
    return static_cast<std::uint64_t>(r.num(column));
  };
  support::Table t =
      an::with_column(sweep, "steal_bound", [&u](const an::RowView& r) {
        return support::format_double(
            core::abp_steal_bound(u(r, "procs"), u(r, "span")));
      });
  t = an::with_column(t, "deviation_bound", [&u](const an::RowView& r) {
    return support::format_double(
        core::structured_deviation_bound(u(r, "procs"), u(r, "span")));
  });
  t = an::with_column(t, "miss_bound", [&u](const an::RowView& r) {
    return support::format_double(core::structured_miss_bound(
        u(r, "cache_lines"), u(r, "procs"), u(r, "span")));
  });
  t = an::with_ratio(t, "steal_ratio", "mean_steals", "steal_bound");
  t = an::with_ratio(t, "deviation_ratio", "mean_deviations",
                     "deviation_bound");
  return an::with_ratio(t, "miss_ratio", "mean_additional_misses",
                        "miss_bound");
}

support::Table policy_contrast(const support::Table& sweep) {
  const std::vector<std::string> keys = {"family", "size", "size2", "nodes",
                                         "touches"};
  const support::Table devs =
      an::pivot(sweep, keys, "policy", "mean_deviations");
  const support::Table misses =
      an::pivot(sweep, keys, "policy", "mean_additional_misses");
  support::Table t = an::join(devs, misses, keys, "_deviations", "_misses");
  t = an::with_ratio(t, "pf/ff_deviations", "parent-first_deviations",
                     "future-first_deviations");
  return an::with_ratio(t, "pf/ff_misses", "parent-first_misses",
                        "future-first_misses");
}

std::vector<std::string> failed_claims(const Preset& preset,
                                       const support::Table& derived) {
  std::vector<std::string> failures;
  for (const PresetClaim& claim : preset.claims) {
    const std::string why = check_claim(claim, derived);
    if (!why.empty()) failures.push_back(describe(claim) + ": " + why);
  }
  return failures;
}

}  // namespace wsf::exp
