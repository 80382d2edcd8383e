// Baseline acquisition policies for the Policy Lab (DESIGN.md §9).
//
// The on-demand and fixed-delta baselines live in
// src/bidbrain/tier_policy.h, where the job simulator shares them. This
// header adds the hindsight baseline and the textual spec registry:
//
//  - OracleNextPricePolicy: hindsight upper bound. Reads the future
//                           price path (which no real policy can),
//                           places capacity on the market whose coming
//                           prices are cheapest, and bids the maximum
//                           upcoming price over its lookahead so it is
//                           never evicted inside that horizon. This
//                           bounds what eviction-free informed bidding
//                           could achieve; it does not model the even
//                           stronger oracle that engineers refunds.
#ifndef SRC_BACKTEST_POLICIES_H_
#define SRC_BACKTEST_POLICIES_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/bidbrain/acquisition_policy.h"
#include "src/bidbrain/eviction_estimator.h"
#include "src/bidbrain/tier_policy.h"
#include "src/market/instance_type.h"
#include "src/market/trace_store.h"
#include "src/proteus/job_simulator.h"

namespace proteus {
namespace backtest {

// The baselines the job simulator shares, under their Policy Lab names.
using ::proteus::FixedDeltaSpotPolicy;
using ::proteus::OnDemandOnlyPolicy;

class OracleNextPricePolicy : public AcquisitionPolicy {
 public:
  OracleNextPricePolicy(const InstanceTypeCatalog* catalog, const TraceStore* prices,
                        int target_vcpus, SimDuration lookahead = 8 * kHour);

  std::string name() const override { return "oracle"; }
  std::vector<BidAction> Decide(SimTime now,
                                const std::vector<LiveAllocation>& live) const override;

 private:
  const InstanceTypeCatalog* catalog_;
  const TraceStore* prices_;
  int target_vcpus_;
  SimDuration lookahead_;
};

// --- Policy spec registry ---
//
// Cheap textual construction for the CLI and benches. Supported specs:
//   "bidbrain"              BidBrain with scheme.bidbrain's config.
//   "on_demand"             OnDemandOnlyPolicy.
//   "fixed_delta:<delta>"   FixedDeltaSpotPolicy at the given $ delta,
//                           targeting scheme.standard_target_vcpus.
//   "oracle[:<hours>]"      OracleNextPricePolicy with an optional
//                           lookahead (default 8h).

struct PolicyEnv {
  const InstanceTypeCatalog* catalog = nullptr;
  const TraceStore* traces = nullptr;
  const EvictionModel* estimator = nullptr;
};

using PolicyFactory = std::function<std::unique_ptr<AcquisitionPolicy>()>;

// Returns a factory for `spec`, or nullptr (with *error set when error
// is non-null) for an unrecognized/ill-formed spec. The factory captures
// the PolicyEnv pointers by value; they must outlive every instance.
PolicyFactory MakePolicyFactory(const std::string& spec, const PolicyEnv& env,
                                const SchemeConfig& scheme, std::string* error = nullptr);

// The spec strings MakePolicyFactory understands, for --list_policies.
std::vector<std::string> KnownPolicySpecs();

}  // namespace backtest
}  // namespace proteus

#endif  // SRC_BACKTEST_POLICIES_H_
