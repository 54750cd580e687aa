#include "msropm/core/shil_plan.hpp"

#include <numbers>
#include <stdexcept>

namespace msropm::core {

bool valid_color_count(unsigned num_colors) noexcept {
  return num_colors >= 2 && (num_colors & (num_colors - 1)) == 0 &&
         num_colors <= 128;
}

unsigned stages_for_colors(unsigned num_colors) {
  if (!valid_color_count(num_colors)) {
    throw std::invalid_argument(
        "stages_for_colors: colors must be a power of two in [2, 128]");
  }
  unsigned stages = 0;
  while ((1u << stages) < num_colors) ++stages;
  return stages;
}

double shil_phase(std::uint8_t sel, unsigned stage) {
  if (stage == 0 || stage > 7 || sel >= (1u << (stage - 1))) {
    throw std::invalid_argument("shil_phase: stage 1..7, sel < 2^(stage-1)");
  }
  // sel / 2^(stage-1) is exact, so this is the dyadic sum of the bits.
  return std::numbers::pi *
         (static_cast<double>(sel) / static_cast<double>(1u << (stage - 1)));
}

std::uint8_t final_color(std::uint8_t sel, std::uint8_t last_bit,
                         unsigned num_stages) {
  if (num_stages == 0 || num_stages > 7 || sel >= (1u << (num_stages - 1)) ||
      last_bit > 1) {
    throw std::invalid_argument(
        "final_color: 1..7 stages, sel < 2^(stages-1), last_bit <= 1");
  }
  return static_cast<std::uint8_t>(sel + (last_bit << (num_stages - 1)));
}

}  // namespace msropm::core
