// Distance arithmetic for the distance heuristic (Section 3 of the paper).
//
// The distance of an object is the minimum number of inter-site references on
// any path from a persistent root to it; garbage has distance infinity.
// Distances are estimated conservatively and only ever compared and
// incremented by one, so saturating arithmetic on a 32-bit value suffices.
#pragma once

#include <cstdint>
#include <limits>

namespace dgc {

using Distance = std::uint32_t;

/// Estimated distance of unreachable iorefs; also the initial distance of an
/// outref before any local trace has propagated a value to it.
inline constexpr Distance kDistanceInfinity = std::numeric_limits<Distance>::max();

/// Saturating distance addition: every increment of a Distance value must go
/// through here (or NextDistance) so a near-infinity estimate pins at
/// infinity instead of wrapping around to a tiny — and therefore *clean* —
/// distance, which would unsuspect garbage forever.
[[nodiscard]] constexpr Distance AddDistance(Distance a, Distance b) {
  return a >= kDistanceInfinity - b ? kDistanceInfinity : a + b;
}

/// distance + 1 with saturation at infinity (a path through an unreachable
/// ioref stays unreachable).
[[nodiscard]] constexpr Distance NextDistance(Distance d) {
  return AddDistance(d, 1);
}

}  // namespace dgc
