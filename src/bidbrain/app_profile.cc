#include "src/bidbrain/app_profile.h"

namespace proteus {

AppProfile AgileMLProfile() {
  AppProfile p;
  p.phi = 0.95;
  p.sigma = 30 * kSecond;   // Background incorporation; near-free.
  p.lambda = 60 * kSecond;  // Partition migration within the warning.
  return p;
}

}  // namespace proteus
