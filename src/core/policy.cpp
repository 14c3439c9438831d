#include "core/policy.hpp"

#include "support/check.hpp"

namespace wsf::core {

ForkPolicy fork_policy_from_string(const std::string& s) {
  if (s == "future-first" || s == "future" || s == "work-first")
    return ForkPolicy::FutureFirst;
  if (s == "parent-first" || s == "parent" || s == "help-first")
    return ForkPolicy::ParentFirst;
  WSF_REQUIRE(false, "unknown fork policy '"
                         << s << "' (future-first | parent-first)");
  return ForkPolicy::FutureFirst;
}

StealPolicy steal_policy_from_string(const std::string& s) {
  if (s == "one" || s == "single") return StealPolicy::One;
  if (s == "half" || s == "steal-half") return StealPolicy::Half;
  WSF_REQUIRE(false, "unknown steal policy '" << s << "' (one | half)");
  return StealPolicy::One;
}

VictimPolicy victim_policy_from_string(const std::string& s) {
  if (s == "uniform" || s == "random") return VictimPolicy::Uniform;
  if (s == "last-victim" || s == "last" || s == "affinity")
    return VictimPolicy::LastVictim;
  if (s == "nearest" || s == "neighbor") return VictimPolicy::Nearest;
  WSF_REQUIRE(false, "unknown victim policy '"
                         << s << "' (uniform | last-victim | nearest)");
  return VictimPolicy::Uniform;
}

}  // namespace wsf::core
