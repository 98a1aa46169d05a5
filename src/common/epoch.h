// Epoch-stamped per-query scratch.
//
// Searchers keep one uint32_t stamp per record instead of clearing
// per-record state before every search: a record's scratch is current iff
// its stamp equals the search's epoch, and a stamp of 0 means "never
// touched". AdvanceEpoch is the one place an epoch moves forward.

#ifndef PIGEONRING_COMMON_EPOCH_H_
#define PIGEONRING_COMMON_EPOCH_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace pigeonring {

/// Starts a new search: advances `*epoch` and returns it. When the counter
/// wraps, every stamp is zeroed and counting restarts at 1, so a stamp
/// written 2^32 searches earlier never reads as current and 0 keeps
/// meaning "never touched".
inline uint32_t AdvanceEpoch(uint32_t* epoch, std::vector<uint32_t>* stamps) {
  if (++*epoch == 0) {
    std::fill(stamps->begin(), stamps->end(), 0u);
    *epoch = 1;
  }
  return *epoch;
}

}  // namespace pigeonring

#endif  // PIGEONRING_COMMON_EPOCH_H_
