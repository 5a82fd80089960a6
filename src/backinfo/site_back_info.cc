#include "backinfo/site_back_info.h"

#include <algorithm>

#include "common/check.h"

namespace dgc {

void SiteBackInfo::RecomputeInsets() {
  outref_insets.clear();
  for (const auto& [inref_obj, outset] : inref_outsets) {
    for (const ObjectId outref : outset) {
      outref_insets[outref].push_back(inref_obj);
    }
  }
  // Outset iteration is ordered by inref object id, so each inset is already
  // sorted; assert rather than re-sort.
  for (auto& [outref, inset] : outref_insets) {
    (void)outref;
    DGC_DCHECK(std::is_sorted(inset.begin(), inset.end()));
  }
}

std::size_t SiteBackInfo::stored_elements() const {
  std::size_t total = 0;
  for (const auto& [inref_obj, outset] : inref_outsets) {
    (void)inref_obj;
    total += outset.size();
  }
  for (const auto& [outref, inset] : outref_insets) {
    (void)outref;
    total += inset.size();
  }
  return total;
}

}  // namespace dgc
