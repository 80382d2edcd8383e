// Application characterization parameters consumed by BidBrain (Table 2).
#ifndef SRC_BIDBRAIN_APP_PROFILE_H_
#define SRC_BIDBRAIN_APP_PROFILE_H_

#include "src/common/types.h"

namespace proteus {

struct AppProfile {
  // phi: how efficiently the application scales (0-1]; first-order
  // coefficient of the scalability curve (§4.1). The paper sets these
  // empirically from experiments like our Fig. 15 bench.
  double phi = 0.95;
  // sigma: overhead of adding/removing resources (time the application
  // makes no progress after a footprint change).
  SimDuration sigma = 30 * kSecond;
  // lambda: overhead of an eviction (progress pause while partitions are
  // migrated / state recovered).
  SimDuration lambda = 60 * kSecond;
};

// The profile used in the evaluation: AgileML recovers from evictions in
// seconds (partition moves). The job simulator runs the checkpointing
// baselines with it too (Table 2) and models their restart separately.
AppProfile AgileMLProfile();

}  // namespace proteus

#endif  // SRC_BIDBRAIN_APP_PROFILE_H_
