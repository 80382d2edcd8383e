// Canonical fingerprint of a runtime's training state, shared by the
// crash-restart, tier-storm and lossy-link scenarios, which pin
// post-recovery state byte for byte.
#ifndef SRC_CHAOS_STATE_DIGEST_H_
#define SRC_CHAOS_STATE_DIGEST_H_

#include <cstdint>

#include "src/agileml/runtime.h"

namespace proteus {

// FNV-1a over the model's canonical checkpoint blob, then the clock.
// Lost-clock accounting is deliberately excluded: it legitimately
// differs across a crash or storm while the model bytes must not.
std::uint64_t StateDigest(const AgileMLRuntime& runtime);

}  // namespace proteus

#endif  // SRC_CHAOS_STATE_DIGEST_H_
