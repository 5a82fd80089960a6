#include "net/messages.h"

#include <array>

#include "common/check.h"

namespace dgc {

namespace {

constexpr std::array<const char*, kPayloadKinds> kNames = {
    "Insert",          "InsertAck",       "Update",
    "BackLocalCall",   "BackRemoteCall",  "BackReply",
    "BackReport",      "BackCallBatch",   "MutatorRead",
    "MutatorReadReply", "MutatorWrite",   "MutatorWriteAck",
    "Fetch",           "FetchReply",      "Commit",
    "CommitAck",       "PinRelease",      "GlobalGcControl",
    "GlobalGcGray",    "TimestampUpdate", "Migrate",
    "Patch",           "ReachabilitySummary", "Condemn",
};

}  // namespace

const char* PayloadKindName(std::size_t index) {
  DGC_CHECK(index < kPayloadKinds);
  return kNames[index];
}

}  // namespace dgc
