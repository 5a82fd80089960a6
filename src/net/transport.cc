#include "net/transport.h"

#include <utility>

#include "common/check.h"
#include "net/threaded_transport.h"

namespace dgc {

std::unique_ptr<Transport> CreateTransport(std::size_t site_count,
                                           Scheduler& control,
                                           NetworkConfig config, Rng rng) {
  switch (config.transport) {
    case TransportKind::kSim:
      return std::make_unique<SimTransport>(control, std::move(config), rng);
    case TransportKind::kThreaded:
      return std::make_unique<ThreadedTransport>(site_count, control,
                                                 std::move(config), rng);
    case TransportKind::kSocket:
      DGC_CHECK_MSG(false,
                    "TransportKind::kSocket runs sites as separate OS "
                    "processes, so System cannot host it; drive it through "
                    "SocketWorld (net/socket_world.h) or `dgcsim --transport "
                    "socket`");
      return nullptr;
  }
  DGC_CHECK_MSG(false, "unknown TransportKind");
  return nullptr;
}

}  // namespace dgc
