// Round-robin striping discipline shared by the functional client's upload
// drain (client/chunk_uploader) and the perf write-pipeline models (paper
// §IV.A: chunks are "striped across benefactor nodes" in round-robin
// order).
#pragma once

#include <cstddef>
#include <vector>

namespace stdchk {

// Cursor over a stripe of targets. `Peek(stripe, k)` is the member k steps
// past the cursor (wrapping); `Advance` moves the cursor one member, the
// per-chunk step both the client and the models use.
class RoundRobinCursor {
 public:
  template <typename T>
  const T& Peek(const std::vector<T>& stripe, std::size_t steps = 0) const {
    return stripe[(next_ + steps) % stripe.size()];
  }

  void Advance(std::size_t stripe_size) {
    if (stripe_size != 0) next_ = (next_ + 1) % stripe_size;
  }

  std::size_t position() const { return next_; }

 private:
  std::size_t next_ = 0;
};

}  // namespace stdchk
