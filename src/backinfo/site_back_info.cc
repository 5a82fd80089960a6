#include "backinfo/site_back_info.h"

#include <algorithm>
#include <utility>

namespace dgc {

void SiteBackInfo::RecomputeInsets() {
  // One (outref, inref) pair per outset member, sorted once: each inset is
  // then one ascending run, and the runs come in outref order.
  std::size_t members = 0;
  for (const auto& [inref_obj, outset] : inref_outsets) {
    (void)inref_obj;
    members += outset.size();
  }
  std::vector<std::pair<ObjectId, ObjectId>> pairs;
  pairs.reserve(members);
  for (const auto& [inref_obj, outset] : inref_outsets) {
    for (const ObjectId outref : outset) pairs.emplace_back(outref, inref_obj);
  }
  std::sort(pairs.begin(), pairs.end());
  outref_insets.clear();
  for (auto run = pairs.begin(); run != pairs.end();) {
    const ObjectId outref = run->first;
    const auto run_end =
        std::find_if(run, pairs.end(),
                     [&](const auto& pair) { return pair.first != outref; });
    std::vector<ObjectId>& inset = outref_insets.emplace_back(outref);
    inset.reserve(static_cast<std::size_t>(run_end - run));
    for (; run != run_end; ++run) inset.push_back(run->second);
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
