#pragma once
// Phase-shifted SHIL planning for the multi-stage divide-and-color flow
// (paper Sec. 3.1-3.2, Fig. 2).
//
// A 2^m-coloring runs in m stages. Each oscillator owns one SHIL_SEL
// register, `sel`, that holds the bits b_1..b_{k-1} read out in earlier
// stages, shifted in MSB-first: sel = 0 before stage 1 and
// sel <- 2*sel + b_k after stage k. During stage-k discretization the
// oscillator receives an order-2 SHIL whose phase offset is
//
//   psi_k = pi * sum_{j=1}^{k-1} b_j / 2^j = pi * sel / 2^(k-1)
//
// which locks it at psi or psi + pi; the chosen lobe is bit b_k. For m = 2
// this is exactly the paper's SHIL 1 (psi = 0, locks {0, 180} deg) and
// SHIL 2 (psi = pi/2, locks {90, 270} deg). Two oscillators share a group
// (same SHIL, coupling left on by P_EN) iff their registers are equal. After
// m stages the final phase psi_m + pi * b_m sits on the K-grid 2*pi*c/K at
// c = sel_(m-1) + b_m * 2^(m-1): the color, so the 2^m bit patterns map one
// to one onto K equally spaced phases -- the vector Potts spins.

#include <cstdint>

namespace msropm::core {

/// Number of stages needed for K colors; K must be a power of two >= 2.
[[nodiscard]] unsigned stages_for_colors(unsigned num_colors);

/// True when K is a representable color count (power of two >= 2).
[[nodiscard]] bool valid_color_count(unsigned num_colors) noexcept;

/// SHIL phase offset for stage `stage` (1-based) of an oscillator whose
/// register holds its first stage-1 bits: pi * sel / 2^(stage-1). Throws
/// std::invalid_argument unless 1 <= stage <= 7 and sel < 2^(stage-1).
[[nodiscard]] double shil_phase(std::uint8_t sel, unsigned stage);

/// Final color after `num_stages` stages: the register before the last
/// readout plus the last bit as the MSB, sel + (last_bit << (num_stages-1)).
/// Throws std::invalid_argument unless 1 <= num_stages <= 7,
/// sel < 2^(num_stages-1) and last_bit <= 1.
[[nodiscard]] std::uint8_t final_color(std::uint8_t sel, std::uint8_t last_bit,
                                       unsigned num_stages);

}  // namespace msropm::core
