// Fixture: triggers msropm-lint rule `hot-path-alloc` and nothing else.
// Staged at src/phase/ — PhaseBatch::rebuild_edge_bits runs inside the
// per-step euler_step_lanes after a mask change, so a scratch copy of the
// mask in CSR order is a per-call allocation on a hot path.
#include <cstddef>
#include <cstdint>
#include <vector>

namespace msropm::phase {

class PhaseBatch {
 public:
  void rebuild_edge_bits(std::size_t r);

 private:
  std::size_t m_ = 0;
  std::vector<std::uint32_t> csr_edge_;
  std::vector<std::uint8_t> edge_mask_;
  std::vector<std::uint8_t> edge_bits_;
};

void PhaseBatch::rebuild_edge_bits(std::size_t r) {
  std::vector<std::uint8_t> csr_mask(2 * m_);  // BAD: allocates per rebuild
  for (std::size_t k = 0; k < csr_mask.size(); ++k) {
    csr_mask[k] = edge_mask_[r * m_ + csr_edge_[k]];
  }
  for (std::size_t k = 0; k < csr_mask.size(); ++k) {
    edge_bits_[k] = csr_mask[k] != 0 ? 1 : 0;
  }
}

}  // namespace msropm::phase
