#include "src/backtest/policies.h"

#include <cstdlib>
#include <limits>

#include "src/bidbrain/bidbrain.h"
#include "src/common/logging.h"

namespace proteus {
namespace backtest {

OracleNextPricePolicy::OracleNextPricePolicy(const InstanceTypeCatalog* catalog,
                                             const TraceStore* prices, int target_vcpus,
                                             SimDuration lookahead)
    : catalog_(catalog), prices_(prices), target_vcpus_(target_vcpus), lookahead_(lookahead) {
  PROTEUS_CHECK(catalog_ != nullptr);
  PROTEUS_CHECK(prices_ != nullptr);
  PROTEUS_CHECK_GT(target_vcpus_, 0);
  PROTEUS_CHECK_GT(lookahead_, 0.0);
}

std::vector<BidAction> OracleNextPricePolicy::Decide(
    SimTime now, const std::vector<LiveAllocation>& live) const {
  const int deficit = target_vcpus_ - LiveSpotVcpus(*catalog_, live);
  if (deficit <= 0) {
    return {};
  }
  // Hindsight market choice: rank by the time-weighted average of the
  // prices actually coming over the lookahead (hour starts are what get
  // billed, so the average tracks the true cost of staying put).
  const MarketKey* best = nullptr;
  double best_appc = std::numeric_limits<double>::infinity();
  const std::vector<MarketKey> markets = prices_->Keys();
  for (const MarketKey& key : markets) {
    const InstanceType* type = catalog_->Find(key.instance_type);
    if (type == nullptr) {
      continue;
    }
    const double avg = prices_->Get(key).AveragePrice(now, now + lookahead_);
    const double appc = avg / type->vcpus;
    if (appc < best_appc) {
      best_appc = appc;
      best = &key;
    }
  }
  if (best == nullptr) {
    return {};
  }
  const InstanceType& type = catalog_->Get(best->instance_type);
  const PriceSeries& series = prices_->Get(*best);
  // Eviction requires price > bid (strict), so bidding the lookahead
  // maximum guarantees survival through the horizon.
  const Money bid = series.MaxPrice(now, now + lookahead_);
  if (series.PriceAt(now) > bid) {
    return {};  // Defensive; cannot happen for a max over [now, ...].
  }
  const int count = (deficit + type.vcpus - 1) / type.vcpus;
  return {{BidAction::Kind::kAcquire, *best, count, bid, kInvalidAllocation}};
}

PolicyFactory MakePolicyFactory(const std::string& spec, const PolicyEnv& env,
                                const SchemeConfig& scheme, std::string* error) {
  PROTEUS_CHECK(env.catalog != nullptr);
  PROTEUS_CHECK(env.traces != nullptr);
  auto fail = [&](const std::string& message) -> PolicyFactory {
    if (error != nullptr) {
      *error = message;
    }
    return nullptr;
  };

  if (spec == "bidbrain") {
    if (env.estimator == nullptr) {
      return fail("bidbrain policy needs a trained EvictionModel in PolicyEnv");
    }
    const BidBrainConfig config = scheme.bidbrain;
    return [env, config] {
      return std::make_unique<BidBrain>(env.catalog, env.traces, env.estimator, config);
    };
  }
  if (spec == "on_demand") {
    return [] { return std::make_unique<OnDemandOnlyPolicy>(); };
  }
  const std::string fixed_prefix = "fixed_delta:";
  if (spec.rfind(fixed_prefix, 0) == 0) {
    char* end = nullptr;
    const std::string arg = spec.substr(fixed_prefix.size());
    const double delta = std::strtod(arg.c_str(), &end);
    if (arg.empty() || end == nullptr || *end != '\0' || delta < 0.0) {
      return fail("bad fixed_delta spec '" + spec + "' (want fixed_delta:<dollars>)");
    }
    const int target = scheme.standard_target_vcpus;
    return [env, delta, target] {
      return std::make_unique<FixedDeltaSpotPolicy>(env.catalog, env.traces, delta, target);
    };
  }
  if (spec == "oracle" || spec.rfind("oracle:", 0) == 0) {
    SimDuration lookahead = 8 * kHour;
    if (spec != "oracle") {
      char* end = nullptr;
      const std::string arg = spec.substr(7);
      const double hours = std::strtod(arg.c_str(), &end);
      if (arg.empty() || end == nullptr || *end != '\0' || hours <= 0.0) {
        return fail("bad oracle spec '" + spec + "' (want oracle[:<lookahead hours>])");
      }
      lookahead = hours * kHour;
    }
    const int target = scheme.standard_target_vcpus;
    return [env, target, lookahead] {
      return std::make_unique<OracleNextPricePolicy>(env.catalog, env.traces, target, lookahead);
    };
  }
  if (spec == "tiered" || spec.rfind("tiered:", 0) == 0) {
    if (env.estimator == nullptr) {
      return fail("tiered policy needs a trained EvictionModel in PolicyEnv");
    }
    TieredPolicyConfig config;
    config.target_vcpus = scheme.standard_target_vcpus;
    config.reliable_type = scheme.on_demand_type;
    if (spec != "tiered") {
      char* end = nullptr;
      const std::string arg = spec.substr(7);
      const double beta = std::strtod(arg.c_str(), &end);
      if (arg.empty() || end == nullptr || *end != '\0' || beta < 0.0 || beta > 1.0) {
        return fail("bad tiered spec '" + spec + "' (want tiered[:<serverless beta in [0,1]>])");
      }
      config.serverless_beta = beta;
    }
    return [env, config] {
      return std::make_unique<TieredAcquisitionPolicy>(env.catalog, env.traces, env.estimator,
                                                       config);
    };
  }
  return fail("unknown policy spec '" + spec + "'");
}

std::vector<std::string> KnownPolicySpecs() {
  return {"bidbrain", "on_demand", "fixed_delta:<dollars>", "oracle[:<lookahead hours>]",
          "tiered[:<serverless beta>]"};
}

}  // namespace backtest
}  // namespace proteus
