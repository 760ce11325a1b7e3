#include "topology/torus.hpp"

#include "util/assert.hpp"
#include "util/math.hpp"

namespace torex {

Torus::Torus(TorusShape shape) : shape_(std::move(shape)) {}

std::int64_t Torus::num_channels() const {
  return static_cast<std::int64_t>(shape_.num_nodes()) * 2 * shape_.num_dims();
}

ChannelId Torus::channel_id(Rank from, Direction direction) const {
  TOREX_REQUIRE(from >= 0 && from < shape_.num_nodes(), "rank out of range");
  TOREX_REQUIRE(direction.dim >= 0 && direction.dim < shape_.num_dims(),
                "dimension out of range");
  const std::int64_t dir_slot =
      static_cast<std::int64_t>(direction.dim) * 2 + (direction.sign == Sign::kPositive ? 0 : 1);
  return static_cast<std::int64_t>(from) * (2 * shape_.num_dims()) + dir_slot;
}

Channel Torus::channel_of(ChannelId id) const {
  TOREX_REQUIRE(id >= 0 && id < num_channels(), "channel id out of range");
  const std::int64_t per_node = 2 * shape_.num_dims();
  Channel ch;
  ch.from = static_cast<Rank>(id / per_node);
  const std::int64_t slot = id % per_node;
  ch.direction.dim = static_cast<int>(slot / 2);
  ch.direction.sign = (slot % 2 == 0) ? Sign::kPositive : Sign::kNegative;
  return ch;
}

Rank Torus::neighbor(Rank node, Direction direction) const {
  return neighbor_at(node, direction, 1);
}

Rank Torus::neighbor_at(Rank node, Direction direction, std::int64_t hops) const {
  // Only the coordinate along the direction moves: stride arithmetic on
  // the rank, with no coordinate vector.
  const int dim = direction.dim;
  const std::int32_t from = shape_.coord_along(node, dim);
  const std::int32_t to = shape_.wrap(dim, from + sign_value(direction.sign) * hops);
  return static_cast<Rank>(node + (to - from) * shape_.stride(dim));
}

void Torus::straight_path(Rank from, Direction direction, std::int64_t hops,
                          std::vector<ChannelId>& out) const {
  TOREX_REQUIRE(hops >= 0, "negative hop count");
  Rank at = from;
  for (std::int64_t h = 0; h < hops; ++h) {
    out.push_back(channel_id(at, direction));
    at = neighbor(at, direction);
  }
}

std::int64_t Torus::dimension_ordered_path(Rank from, Rank to,
                                           std::vector<ChannelId>& out) const {
  const Coord a = shape_.coord_of(from);
  const Coord b = shape_.coord_of(to);
  std::int64_t hops = 0;
  Rank at = from;
  for (int d = 0; d < shape_.num_dims(); ++d) {
    const std::int64_t delta =
        ring_delta(a[static_cast<std::size_t>(d)], b[static_cast<std::size_t>(d)],
                                 shape_.extent(d));
    const Direction dir{d, delta >= 0 ? Sign::kPositive : Sign::kNegative};
    const std::int64_t steps = delta >= 0 ? delta : -delta;
    straight_path(at, dir, steps, out);
    at = neighbor_at(at, dir, steps);
    hops += steps;
  }
  TOREX_CHECK(at == to, "dimension-ordered route did not reach destination");
  return hops;
}

std::int64_t Torus::distance(Rank a, Rank b) const {
  return shape_.distance(shape_.coord_of(a), shape_.coord_of(b));
}

}  // namespace torex
