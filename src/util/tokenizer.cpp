#include "msropm/util/tokenizer.hpp"

#include <istream>

namespace msropm::util {

std::string read_complete_lines(std::istream& in) {
  // std::getline drops a line cut short by a failing read, so the buffer
  // holds exactly the lines a getline loop would have handed over.
  std::string text;
  std::string line;
  while (std::getline(in, line)) {
    text += line;
    text += '\n';
  }
  return text;
}

}  // namespace msropm::util
