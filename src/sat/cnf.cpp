#include "msropm/sat/cnf.hpp"

#include <stdexcept>

namespace msropm::sat {

void Cnf::throw_var_out_of_range() {
  throw std::invalid_argument("Cnf::add_clause: literal var out of range");
}

bool Cnf::satisfied_by(const std::vector<std::uint8_t>& assignment) const {
  if (assignment.size() != num_vars_) {
    throw std::invalid_argument("Cnf::satisfied_by: assignment size mismatch");
  }
  for (const std::span<const Lit> c : clauses()) {
    bool sat = false;
    for (Lit l : c) {
      const bool value = assignment[l.var()] != 0;
      if (value != l.negated()) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

}  // namespace msropm::sat
