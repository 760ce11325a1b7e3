#include "topology/shape.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace torex {

TorusShape::TorusShape(std::vector<std::int32_t> extents) : extents_(std::move(extents)) {
  TOREX_REQUIRE(!extents_.empty(), "torus needs at least one dimension");
  std::int64_t total = 1;
  for (auto e : extents_) {
    TOREX_REQUIRE(e >= 1, "every extent must be positive");
    total *= e;
    TOREX_REQUIRE(total <= std::numeric_limits<Rank>::max(), "node count overflows Rank");
  }
  num_nodes_ = static_cast<Rank>(total);
  strides_.assign(extents_.size(), 1);
  for (int d = static_cast<int>(extents_.size()) - 2; d >= 0; --d) {
    strides_[static_cast<std::size_t>(d)] =
        strides_[static_cast<std::size_t>(d) + 1] * extents_[static_cast<std::size_t>(d) + 1];
  }
}

TorusShape TorusShape::make_2d(std::int32_t rows, std::int32_t cols) {
  return TorusShape({rows, cols});
}

TorusShape TorusShape::make_3d(std::int32_t a1, std::int32_t a2, std::int32_t a3) {
  return TorusShape({a1, a2, a3});
}

std::int32_t TorusShape::extent(int dim) const {
  TOREX_REQUIRE(dim >= 0 && dim < num_dims(), "dimension out of range");
  return extents_[static_cast<std::size_t>(dim)];
}

std::int32_t TorusShape::max_extent() const {
  return *std::max_element(extents_.begin(), extents_.end());
}

Rank TorusShape::rank_of(const Coord& coord) const {
  TOREX_REQUIRE(coord.size() == extents_.size(), "coordinate dimensionality mismatch");
  std::int64_t rank = 0;
  for (std::size_t d = 0; d < extents_.size(); ++d) {
    TOREX_REQUIRE(coord[d] >= 0 && coord[d] < extents_[d], "coordinate out of range");
    rank += coord[d] * strides_[d];
  }
  return static_cast<Rank>(rank);
}

Coord TorusShape::coord_of(Rank rank) const {
  TOREX_REQUIRE(rank >= 0 && rank < num_nodes_, "rank out of range");
  Coord coord(extents_.size());
  std::int64_t rest = rank;
  for (std::size_t d = 0; d < extents_.size(); ++d) {
    coord[d] = static_cast<std::int32_t>(rest / strides_[d]);
    rest %= strides_[d];
  }
  return coord;
}

std::int64_t TorusShape::stride(int dim) const {
  TOREX_REQUIRE(dim >= 0 && dim < num_dims(), "dimension out of range");
  return strides_[static_cast<std::size_t>(dim)];
}

std::int32_t TorusShape::coord_along(Rank rank, int dim) const {
  TOREX_REQUIRE(rank >= 0 && rank < num_nodes_, "rank out of range");
  TOREX_REQUIRE(dim >= 0 && dim < num_dims(), "dimension out of range");
  const std::size_t d = static_cast<std::size_t>(dim);
  return static_cast<std::int32_t>((rank / strides_[d]) % extents_[d]);
}

bool TorusShape::all_extents_multiple_of_four() const {
  return std::all_of(extents_.begin(), extents_.end(),
                     [](std::int32_t e) { return is_positive_multiple_of(e, 4); });
}

bool TorusShape::extents_non_increasing() const {
  return std::is_sorted(extents_.begin(), extents_.end(), std::greater<std::int32_t>());
}

std::int32_t TorusShape::wrap(int dim, std::int64_t value) const {
  return static_cast<std::int32_t>(floor_mod<std::int64_t>(value, extent(dim)));
}

Coord TorusShape::moved(const Coord& coord, int dim, std::int64_t hops) const {
  TOREX_REQUIRE(coord.size() == extents_.size(), "coordinate dimensionality mismatch");
  Coord out = coord;
  out[static_cast<std::size_t>(dim)] =
      wrap(dim, static_cast<std::int64_t>(coord[static_cast<std::size_t>(dim)]) + hops);
  return out;
}

std::int64_t TorusShape::distance(const Coord& a, const Coord& b) const {
  TOREX_REQUIRE(a.size() == extents_.size() && b.size() == extents_.size(),
                "coordinate dimensionality mismatch");
  std::int64_t total = 0;
  for (std::size_t d = 0; d < extents_.size(); ++d) {
    total += ring_distance(a[d], b[d], extents_[d]);
  }
  return total;
}

std::string TorusShape::to_string() const {
  std::ostringstream os;
  for (std::size_t d = 0; d < extents_.size(); ++d) {
    if (d) os << 'x';
    os << extents_[d];
  }
  return os.str();
}

}  // namespace torex
