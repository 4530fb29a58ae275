#include "system/system_config.hpp"

#include <stdexcept>
#include <string>

namespace htpb::system {

void SystemConfig::validate() const {
  if (width < 2 || height < 2) {
    throw std::invalid_argument(
        "SystemConfig: mesh must be at least 2x2 (got " +
        std::to_string(width) + "x" + std::to_string(height) + ")");
  }
  // Widened: a huge width times a huge height overflows int.
  const long long nodes = static_cast<long long>(width) * height;
  if (nodes > kMaxNodes) {
    throw std::invalid_argument(
        "SystemConfig: width " + std::to_string(width) + " x height " +
        std::to_string(height) + " = " + std::to_string(nodes) +
        " nodes; node ids ride the packet frame's 16-bit source and "
        "destination fields, so a mesh holds at most " +
        std::to_string(kMaxNodes));
  }
  if (gm_node.has_value() &&
      *gm_node >= static_cast<NodeId>(node_count())) {
    throw std::invalid_argument(
        "SystemConfig: gm_node " + std::to_string(*gm_node) +
        " outside the " + std::to_string(width) + "x" +
        std::to_string(height) + " mesh");
  }
}

SystemConfig SystemConfig::with_mesh(int width, int height) {
  SystemConfig cfg;
  cfg.width = width;
  cfg.height = height;
  cfg.validate();
  return cfg;
}

SystemConfig SystemConfig::with_size(int nodes) {
  switch (nodes) {
    case 64: return with_mesh(8, 8);
    case 128: return with_mesh(16, 8);
    case 256: return with_mesh(16, 16);
    case 512: return with_mesh(32, 16);
    default:
      throw std::invalid_argument(
          "SystemConfig::with_size: supported sizes are 64/128/256/512; "
          "use with_mesh(width, height) for other shapes");
  }
}

}  // namespace htpb::system
