#include "core/id.hpp"

namespace cycloid::ccc {

std::string to_string(const CccId& id, int dimension) {
  std::string bits;
  bits.reserve(static_cast<std::size_t>(dimension));
  for (int i = dimension - 1; i >= 0; --i) {
    bits.push_back(util::bit(id.cubical, i) ? '1' : '0');
  }
  return "(" + std::to_string(id.cyclic) + ", " + bits + ")";
}

}  // namespace cycloid::ccc
