// Blocking-style wait loop for mutator clients, with idempotent retry.
//
// The clients' blocking wrappers drive the world until their operation
// completes, one scheduler event at a time. Under message loss a request or
// its reply may vanish; when the world drains with the operation still
// pending, the client retries (every RPC and insert in the system is
// idempotent and every ack path is duplicate-tolerant). A retry cap turns a
// permanently unreachable peer into a crisp invariant failure instead of a
// silent hang.
#pragma once

#include <functional>

#include "common/check.h"
#include "core/system.h"

namespace dgc {

inline void PumpUntil(System& system, const bool& done,
                      const std::function<void()>& retry,
                      int max_retries = 64) {
  int retries = 0;
  while (!done) {
    if (system.scheduler().RunOne()) continue;
    // World went idle with the operation still pending: a message was lost.
    DGC_CHECK_MSG(retry != nullptr && retries < max_retries,
                  "mutator operation stalled (peer unreachable?) after "
                      << retries << " retries");
    ++retries;
    retry();
  }
}

}  // namespace dgc
