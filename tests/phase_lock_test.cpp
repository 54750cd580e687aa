// Tests for lock-residual diagnostics.
#include "msropm/phase/lock.hpp"

#include <gtest/gtest.h>

#include <numbers>
#include <stdexcept>

namespace {

using namespace msropm::phase;

constexpr double kPi = std::numbers::pi;

TEST(LockResidual, ZeroAtLockPoints) {
  EXPECT_NEAR(lock_residual(0.0, 0.0, 2), 0.0, 1e-12);
  EXPECT_NEAR(lock_residual(kPi, 0.0, 2), 0.0, 1e-12);
  EXPECT_NEAR(lock_residual(kPi / 2, kPi / 2, 2), 0.0, 1e-12);
  EXPECT_NEAR(lock_residual(1.5 * kPi, kPi / 2, 2), 0.0, 1e-12);
}

TEST(LockResidual, MaximalBetweenLockPoints) {
  // Midway between 0 and pi for order 2: residual pi/2.
  EXPECT_NEAR(lock_residual(kPi / 2, 0.0, 2), kPi / 2, 1e-12);
  // Order 4: lock spacing pi/2, max residual pi/4.
  EXPECT_NEAR(lock_residual(kPi / 4, 0.0, 4), kPi / 4, 1e-12);
}

TEST(LockResidual, HandlesWrappedInputs) {
  EXPECT_NEAR(lock_residual(2.0 * kPi + 0.1, 0.0, 2), 0.1, 1e-12);
  EXPECT_NEAR(lock_residual(-0.1, 0.0, 2), 0.1, 1e-12);
}

TEST(LockResidual, OrderOneLocksSinglePoint) {
  EXPECT_NEAR(lock_residual(kPi, 0.0, 1), kPi, 1e-12);
  EXPECT_NEAR(lock_residual(0.0, 0.0, 1), 0.0, 1e-12);
}

TEST(LockResidual, RejectsOrderZero) {
  EXPECT_THROW((void)lock_residual(0.0, 0.0, 0), std::invalid_argument);
  EXPECT_THROW((void)nearest_lock_index(0.0, 0.0, 0), std::invalid_argument);
}

TEST(MaxLockResidual, PicksWorst) {
  const std::vector<double> phases{0.0, 0.3, kPi};
  const std::vector<double> psi(3, 0.0);
  EXPECT_NEAR(max_lock_residual(phases, psi, 2), 0.3, 1e-12);
  // Per-oscillator offsets: pi/2 + 0.05 sits 0.05 from the lobe at psi.
  EXPECT_NEAR(max_lock_residual({0.0, kPi / 2 + 0.05}, {0.0, kPi / 2}, 2), 0.05,
              1e-12);
  EXPECT_DOUBLE_EQ(max_lock_residual({}, {}, 2), 0.0);
  EXPECT_THROW((void)max_lock_residual(phases, {0.0}, 2), std::invalid_argument);
}

TEST(NearestLockIndex, Order2Lobes) {
  EXPECT_EQ(nearest_lock_index(0.1, 0.0, 2), 0u);
  EXPECT_EQ(nearest_lock_index(kPi - 0.1, 0.0, 2), 1u);
  EXPECT_EQ(nearest_lock_index(kPi + 0.4, 0.0, 2), 1u);
  EXPECT_EQ(nearest_lock_index(2.0 * kPi - 0.1, 0.0, 2), 0u);
}

TEST(NearestLockIndex, ShiftedPsi) {
  // SHIL 2 lobes at 90/270 deg.
  EXPECT_EQ(nearest_lock_index(kPi / 2 + 0.05, kPi / 2, 2), 0u);
  EXPECT_EQ(nearest_lock_index(1.5 * kPi, kPi / 2, 2), 1u);
}

TEST(NearestLockIndex, Order4Quadrants) {
  for (unsigned k = 0; k < 4; ++k) {
    const double theta = k * kPi / 2 + 0.05;
    EXPECT_EQ(nearest_lock_index(theta, 0.0, 4), k);
  }
}

}  // namespace
