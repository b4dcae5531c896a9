#pragma once
/// \file distribution.hpp
/// Data distribution types for M-task parameters (paper Section 2.1).
///
/// The distribution of an input/output parameter of an M-task defines how the
/// elements of the data structure are spread over the group of cores
/// executing the task.  The CM-task compiler supports arbitrary block-cyclic
/// distributions; we model the one-dimensional family (replicated, block,
/// cyclic, block-cyclic), which covers all distributions used by the ODE and
/// multi-zone benchmarks.

#include <cstddef>
#include <string>

namespace ptask::dist {

enum class Kind {
  Replicated,   ///< every core of the group holds all elements
  Block,        ///< contiguous balanced blocks (first n%q ranks get one extra)
  Cyclic,       ///< element i owned by rank i mod q
  BlockCyclic,  ///< blocks of size b dealt round-robin
};

const char* to_string(Kind kind);

/// One-dimensional data distribution over a group of `q` cores.
///
/// The class is a value type; equality means "same ownership function".
class Distribution {
 public:
  /// Block-cyclic block size is ignored for the other kinds.
  explicit Distribution(Kind kind, std::size_t block_size = 1);

  static Distribution replicated() { return Distribution(Kind::Replicated); }
  static Distribution block() { return Distribution(Kind::Block); }
  static Distribution cyclic() { return Distribution(Kind::Cyclic); }
  static Distribution block_cyclic(std::size_t b) {
    return Distribution(Kind::BlockCyclic, b);
  }

  Kind kind() const { return kind_; }
  std::size_t block_size() const { return block_; }

  /// Rank (in [0, q)) owning element `i` of an `n`-element vector distributed
  /// over `q` cores.  For Replicated the canonical owner is rank 0 (every
  /// rank holds the element; the canonical owner is who must *send* it when
  /// re-distributing away from a replicated layout).
  std::size_t owner(std::size_t i, std::size_t n, std::size_t q) const;

  /// End (exclusive) of the run from `i` on that shares owner(i): a block
  /// edge for Block and BlockCyclic, i + 1 for Cyclic, n for Replicated.
  std::size_t run_end(std::size_t i, std::size_t n, std::size_t q) const;

  /// Number of elements stored by `rank` for an n-element vector over q
  /// cores.  For Replicated this is n for every rank.
  std::size_t local_count(std::size_t rank, std::size_t n,
                          std::size_t q) const;

  /// True if every rank of the group holds every element.
  bool is_replicated() const { return kind_ == Kind::Replicated; }

  bool operator==(const Distribution& other) const;
  bool operator!=(const Distribution& other) const { return !(*this == other); }

  std::string to_string() const;

 private:
  Kind kind_;
  std::size_t block_;
};

}  // namespace ptask::dist
