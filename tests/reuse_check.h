// Shared test helper: the trace-reuse shadow check on every site.
#pragma once

#include "core/system.h"

namespace dgc {

/// Makes every site check each reused local trace against a shadow full
/// trace (LocalCollector::set_check_reuse_for_testing); any divergence
/// aborts the run with a DGC_CHECK failure.
inline void CheckEveryReuse(System& system) {
  for (SiteId s = 0; s < system.site_count(); ++s) {
    system.site(s).collector().set_check_reuse_for_testing(true);
  }
}

}  // namespace dgc
