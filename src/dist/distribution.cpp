#include "ptask/dist/distribution.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace ptask::dist {

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::Replicated:
      return "replicated";
    case Kind::Block:
      return "block";
    case Kind::Cyclic:
      return "cyclic";
    case Kind::BlockCyclic:
      return "block-cyclic";
  }
  return "unknown";
}

Distribution::Distribution(Kind kind, std::size_t block_size)
    : kind_(kind), block_(block_size) {
  if (kind_ == Kind::BlockCyclic && block_ == 0) {
    throw std::invalid_argument("block-cyclic block size must be positive");
  }
  if (kind_ != Kind::BlockCyclic) block_ = 1;
}

std::size_t Distribution::owner(std::size_t i, std::size_t n,
                                std::size_t q) const {
  if (q == 0) throw std::invalid_argument("group size must be positive");
  if (i >= n) throw std::out_of_range("element index out of range");
  switch (kind_) {
    case Kind::Replicated:
      return 0;
    case Kind::Block: {
      // Balanced block: the first r ranks own ceil(n/q), the rest floor(n/q).
      const std::size_t base = n / q;
      const std::size_t r = n % q;
      const std::size_t big = (base + 1) * r;  // elements in the big blocks
      if (i < big) return i / (base + 1);
      if (base == 0) throw std::logic_error("unreachable block layout");
      return r + (i - big) / base;
    }
    case Kind::Cyclic:
      return i % q;
    case Kind::BlockCyclic:
      return (i / block_) % q;
  }
  throw std::logic_error("invalid distribution kind");
}

std::size_t Distribution::run_end(std::size_t i, std::size_t n,
                                  std::size_t q) const {
  if (q == 0) throw std::invalid_argument("group size must be positive");
  if (i >= n) throw std::out_of_range("element index out of range");
  switch (kind_) {
    case Kind::Replicated:
      return n;
    case Kind::Block: {
      const std::size_t base = n / q;
      const std::size_t big = (base + 1) * (n % q);
      if (i < big) return (i / (base + 1) + 1) * (base + 1);
      return big + ((i - big) / base + 1) * base;
    }
    case Kind::Cyclic:
      return i + 1;
    case Kind::BlockCyclic:
      return std::min(n, (i / block_ + 1) * block_);
  }
  throw std::logic_error("invalid distribution kind");
}

std::size_t Distribution::local_count(std::size_t rank, std::size_t n,
                                      std::size_t q) const {
  if (q == 0) throw std::invalid_argument("group size must be positive");
  if (rank >= q) throw std::out_of_range("rank out of range");
  switch (kind_) {
    case Kind::Replicated:
      return n;
    case Kind::Block: {
      const std::size_t base = n / q;
      const std::size_t r = n % q;
      return rank < r ? base + 1 : base;
    }
    case Kind::Cyclic: {
      return n / q + (rank < n % q ? 1 : 0);
    }
    case Kind::BlockCyclic: {
      const std::size_t full_blocks = n / block_;
      const std::size_t tail = n % block_;
      std::size_t count = (full_blocks / q) * block_;
      const std::size_t rem_blocks = full_blocks % q;
      if (rank < rem_blocks) count += block_;
      if (rank == rem_blocks) count += tail;
      return count;
    }
  }
  throw std::logic_error("invalid distribution kind");
}

bool Distribution::operator==(const Distribution& other) const {
  if (kind_ != other.kind_) return false;
  if (kind_ == Kind::BlockCyclic) return block_ == other.block_;
  return true;
}

std::string Distribution::to_string() const {
  std::ostringstream os;
  os << ptask::dist::to_string(kind_);
  if (kind_ == Kind::BlockCyclic) os << '(' << block_ << ')';
  return os.str();
}

}  // namespace ptask::dist
