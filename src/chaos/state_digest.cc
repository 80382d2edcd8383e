#include "src/chaos/state_digest.h"

#include <vector>

#include "src/common/hash.h"

namespace proteus {

std::uint64_t StateDigest(const AgileMLRuntime& runtime) {
  const std::vector<std::uint8_t> blob = runtime.model().SerializeCheckpoint();
  const std::uint64_t h = Fnv1a(kFnvOffsetBasis, blob.data(), blob.size());
  return Fnv1aU64(h, static_cast<std::uint64_t>(runtime.clock()));
}

}  // namespace proteus
