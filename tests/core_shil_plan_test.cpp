// Tests for the multi-stage SHIL phase plan (paper Sec. 3.1/3.2, Fig. 2):
// the SHIL_SEL register's closed forms for the SHIL phase, the P_EN mask and
// the final color, pinned bit for bit against a frozen copy of the per-bit
// implementation they replaced.
#include "msropm/core/shil_plan.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <set>
#include <stdexcept>
#include <vector>

namespace {

using namespace msropm::core;

constexpr double kPi = std::numbers::pi;

// --- Frozen reference: the per-bit plan, kept verbatim ----------------------

using StageBits = std::vector<std::uint8_t>;

double shil_phase_for_bits(const StageBits& bits) {
  double psi = 0.0;
  double weight = 0.5;
  for (std::uint8_t b : bits) {
    if (b > 1) throw std::invalid_argument("shil_phase_for_bits: bit > 1");
    psi += static_cast<double>(b) * weight;
    weight *= 0.5;
  }
  return std::numbers::pi * psi;
}

double final_phase_from_bits(const StageBits& bits) {
  if (bits.empty()) throw std::invalid_argument("final_phase_from_bits: no bits");
  StageBits prefix(bits.begin(), bits.end() - 1);
  return shil_phase_for_bits(prefix) +
         std::numbers::pi * static_cast<double>(bits.back());
}

std::uint8_t color_from_bits(const StageBits& bits) {
  const auto m = static_cast<unsigned>(bits.size());
  if (m == 0 || m > 7) throw std::invalid_argument("color_from_bits: 1..7 stages");
  const unsigned k = 1u << m;
  const double slot = 2.0 * std::numbers::pi / static_cast<double>(k);
  const double theta = final_phase_from_bits(bits);
  auto idx = static_cast<long>(std::lround(theta / slot));
  idx %= static_cast<long>(k);
  if (idx < 0) idx += static_cast<long>(k);
  return static_cast<std::uint8_t>(idx);
}

// ---------------------------------------------------------------------------

/// Bits b_1..b_m of `pattern`, b_1 = its LSB.
StageBits bits_of(std::uint32_t pattern, unsigned m) {
  StageBits bits(m);
  for (unsigned j = 0; j < m; ++j) {
    bits[j] = static_cast<std::uint8_t>((pattern >> j) & 1u);
  }
  return bits;
}

/// The register after shifting in b_1..b_count, MSB first.
std::uint8_t register_of(const StageBits& bits, std::size_t count) {
  std::uint8_t sel = 0;
  for (std::size_t j = 0; j < count; ++j) {
    sel = static_cast<std::uint8_t>(2 * sel + bits[j]);
  }
  return sel;
}

TEST(ColorCount, Validity) {
  EXPECT_TRUE(valid_color_count(2));
  EXPECT_TRUE(valid_color_count(4));
  EXPECT_TRUE(valid_color_count(8));
  EXPECT_TRUE(valid_color_count(128));
  EXPECT_FALSE(valid_color_count(0));
  EXPECT_FALSE(valid_color_count(1));
  EXPECT_FALSE(valid_color_count(3));
  EXPECT_FALSE(valid_color_count(6));
  EXPECT_FALSE(valid_color_count(256));
}

TEST(StagesForColors, Log2) {
  EXPECT_EQ(stages_for_colors(2), 1u);
  EXPECT_EQ(stages_for_colors(4), 2u);
  EXPECT_EQ(stages_for_colors(8), 3u);
  EXPECT_EQ(stages_for_colors(16), 4u);
  EXPECT_THROW((void)stages_for_colors(3), std::invalid_argument);
  EXPECT_THROW((void)stages_for_colors(0), std::invalid_argument);
}

TEST(ShilPhase, PaperTwoStagePlan) {
  // Stage 1: everyone gets SHIL 1 (psi = 0).
  EXPECT_EQ(shil_phase(0, 1), 0.0);
  // Stage 2: the 0-degree group keeps SHIL 1; the 180-degree group gets
  // SHIL 2 at psi = pi/2 (locks 90/270 deg, paper Fig. 2d).
  EXPECT_EQ(shil_phase(0, 2), 0.0);
  EXPECT_EQ(shil_phase(1, 2), kPi / 2);
}

TEST(ShilPhase, ThreeStagePlanDistinctOffsets) {
  std::set<double> offsets;
  for (std::uint8_t sel = 0; sel < 4; ++sel) offsets.insert(shil_phase(sel, 3));
  EXPECT_EQ(offsets.size(), 4u);
  EXPECT_TRUE(offsets.count(0.0));
  EXPECT_TRUE(offsets.count(kPi / 4));
  EXPECT_TRUE(offsets.count(kPi / 2));
  EXPECT_TRUE(offsets.count(3 * kPi / 4));
}

TEST(ShilPlan, Validation) {
  EXPECT_THROW((void)shil_phase(0, 0), std::invalid_argument);
  EXPECT_THROW((void)shil_phase(0, 8), std::invalid_argument);
  EXPECT_THROW((void)shil_phase(1, 1), std::invalid_argument);
  EXPECT_THROW((void)shil_phase(4, 3), std::invalid_argument);
  EXPECT_NO_THROW((void)shil_phase(63, 7));
  EXPECT_THROW((void)final_color(0, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)final_color(0, 0, 8), std::invalid_argument);
  EXPECT_THROW((void)final_color(1, 0, 1), std::invalid_argument);
  EXPECT_THROW((void)final_color(0, 2, 2), std::invalid_argument);
  EXPECT_EQ(final_color(63, 1, 7), 127);
}

// Every bit pattern at m = 1..7: the register's closed forms reproduce the
// per-bit plan exactly -- psi bit for bit at every stage, the color by value,
// and the P_EN mask that the per-bit machine accumulated by clearing every
// edge a readout cut.
TEST(RegisterEquivalence, ShilPhaseMatchesPerBitPlanBitForBit) {
  for (unsigned m = 1; m <= 7; ++m) {
    for (std::uint32_t pattern = 0; pattern < (1u << m); ++pattern) {
      const StageBits bits = bits_of(pattern, m);
      for (unsigned stage = 1; stage <= m; ++stage) {
        const StageBits prefix(bits.begin(), bits.begin() + (stage - 1));
        const double want = shil_phase_for_bits(prefix);
        const double got = shil_phase(register_of(bits, stage - 1), stage);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << "m " << m << " pattern " << pattern << " stage " << stage;
      }
    }
  }
}

TEST(RegisterEquivalence, FinalColorMatchesPerBitPlan) {
  for (unsigned m = 1; m <= 7; ++m) {
    for (std::uint32_t pattern = 0; pattern < (1u << m); ++pattern) {
      const StageBits bits = bits_of(pattern, m);
      ASSERT_EQ(final_color(register_of(bits, m - 1), bits.back(), m),
                color_from_bits(bits))
          << "m " << m << " pattern " << pattern;
    }
  }
}

TEST(RegisterEquivalence, EdgeMaskMatchesClearOnCutMask) {
  // One edge per ordered pair of bit patterns at its endpoints.
  for (unsigned m = 1; m <= 7; ++m) {
    const std::uint32_t k = 1u << m;
    for (std::uint32_t pu = 0; pu < k; ++pu) {
      const StageBits bu = bits_of(pu, m);
      for (std::uint32_t pv = 0; pv < k; ++pv) {
        const StageBits bv = bits_of(pv, m);
        bool accumulated = true;  // P_EN starts with every coupling on
        for (unsigned stage = 1; stage <= m; ++stage) {
          const bool derived =
              register_of(bu, stage - 1) == register_of(bv, stage - 1);
          ASSERT_EQ(derived, accumulated)
              << "m " << m << " patterns " << pu << "," << pv << " stage "
              << stage;
          if (bu[stage - 1] != bv[stage - 1]) accumulated = false;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The K lock phases are exactly the K-th roots of unity, one per color.
// ---------------------------------------------------------------------------

class ShilPlanSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ShilPlanSweep, FinalPhasesAreEquallySpacedOnTheColorGrid) {
  // Final phase psi_m + pi * b_m sits on the K-grid at its color's slot, so
  // colors sorted by phase are exactly 2*pi/K apart (the vector Potts spin
  // set, Eq. 4).
  const unsigned k = GetParam();
  const unsigned m = stages_for_colors(k);
  const double slot_width = 2.0 * kPi / static_cast<double>(k);
  std::set<int> slots;
  for (std::uint32_t pattern = 0; pattern < k; ++pattern) {
    const StageBits bits = bits_of(pattern, m);
    const std::uint8_t sel = register_of(bits, m - 1);
    const double theta = shil_phase(sel, m) + kPi * bits.back();
    const double slot = theta / slot_width;
    const auto idx = static_cast<int>(std::lround(slot));
    EXPECT_NEAR(slot, idx, 1e-9) << "phase not on the K-grid";
    EXPECT_EQ(idx % static_cast<int>(k), final_color(sel, bits.back(), m));
    slots.insert(idx % static_cast<int>(k));
  }
  EXPECT_EQ(slots.size(), k) << "bit patterns must cover all K phases";
}

TEST_P(ShilPlanSweep, ColorIsBijectiveOverBitPatterns) {
  const unsigned k = GetParam();
  const unsigned m = stages_for_colors(k);
  std::set<std::uint8_t> colors;
  for (std::uint32_t pattern = 0; pattern < k; ++pattern) {
    const StageBits bits = bits_of(pattern, m);
    const std::uint8_t color =
        final_color(register_of(bits, m - 1), bits.back(), m);
    EXPECT_LT(color, k);
    colors.insert(color);
  }
  EXPECT_EQ(colors.size(), k) << "every bit pattern must map to a unique color";
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, ShilPlanSweep,
                         ::testing::Values(2u, 4u, 8u, 16u, 64u, 128u));

}  // namespace
