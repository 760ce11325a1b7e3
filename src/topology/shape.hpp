// Torus shape: dimension sizes plus rank <-> coordinate conversion.
//
// Terminology follows the paper: an `a1 x a2 x ... x an` torus where the
// proposed algorithms require each `ai` to be a multiple of four and the
// sizes to be sorted non-increasing (a1 >= a2 >= ... >= an). The shape
// type itself accepts any positive sizes; algorithm entry points enforce
// their own stricter preconditions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace torex {

/// Node index in [0, num_nodes).
using Rank = std::int32_t;

/// One coordinate per dimension, coord[d] in [0, extent(d)).
using Coord = std::vector<std::int32_t>;

/// Immutable torus shape with mixed-radix rank/coordinate conversion.
/// Ranks are assigned with the *last* dimension varying fastest, so for
/// a 2D `R x C` torus `rank = r * C + c`, matching the paper's P(r, c).
class TorusShape {
 public:
  /// Constructs from per-dimension extents; each must be >= 1 and the
  /// total node count must fit in Rank.
  explicit TorusShape(std::vector<std::int32_t> extents);

  /// Convenience factories.
  static TorusShape make_2d(std::int32_t rows, std::int32_t cols);
  static TorusShape make_3d(std::int32_t a1, std::int32_t a2, std::int32_t a3);

  int num_dims() const { return static_cast<int>(extents_.size()); }
  std::int32_t extent(int dim) const;
  const std::vector<std::int32_t>& extents() const { return extents_; }
  Rank num_nodes() const { return num_nodes_; }

  /// Largest per-dimension extent (the paper's a1).
  std::int32_t max_extent() const;

  Rank rank_of(const Coord& coord) const;
  Coord coord_of(Rank rank) const;

  /// Rank distance between neighbours along `dim`: the product of the
  /// extents after it.
  std::int64_t stride(int dim) const;

  /// Single component of coord_of(rank) without materializing the full
  /// coordinate vector — allocation-free, for use in sort keys and
  /// other per-block hot paths.
  std::int32_t coord_along(Rank rank, int dim) const;

  /// True when every extent is a (positive) multiple of four — the
  /// precondition of the Suh–Shin algorithms.
  bool all_extents_multiple_of_four() const;

  /// True when extents are sorted non-increasing (a1 >= ... >= an).
  bool extents_non_increasing() const;

  /// Wraps a (possibly out-of-range) coordinate value into the torus.
  std::int32_t wrap(int dim, std::int64_t value) const;

  /// Returns the coordinate obtained by moving `hops` steps (signed)
  /// along `dim`, with wraparound.
  Coord moved(const Coord& coord, int dim, std::int64_t hops) const;

  /// Minimal hop distance between two nodes (sum of per-dimension ring
  /// distances).
  std::int64_t distance(const Coord& a, const Coord& b) const;

  /// "12x12x4"-style rendering for logs and bench tables.
  std::string to_string() const;

  bool operator==(const TorusShape& other) const { return extents_ == other.extents_; }

 private:
  std::vector<std::int32_t> extents_;
  std::vector<std::int64_t> strides_;  // strides_[d] = product of extents after d
  Rank num_nodes_ = 0;
};

}  // namespace torex
