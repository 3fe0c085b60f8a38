// Test helper: the blocking form of any transport op.
#pragma once

#include <gtest/gtest.h>

#include <utility>

#include "client/transport.h"

namespace stdchk {

// Submits `op` and waits for its completion. Waiting on a handle just
// submitted cannot fail; if it does, the test fails and an empty
// completion comes back.
inline OpCompletion SubmitAndWait(Transport& transport, ChunkOp op) {
  Result<OpCompletion> done = transport.Wait(transport.Submit(std::move(op)));
  EXPECT_TRUE(done.ok()) << done.status();
  return done.ok() ? std::move(done).value() : OpCompletion{};
}

}  // namespace stdchk
