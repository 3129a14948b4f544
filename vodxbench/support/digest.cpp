#include "support/digest.h"

#include <cstdio>

namespace vodxbench {

void Digest::mix(const unsigned char* data, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= data[i];
    state_ *= 0x100000001b3ULL;
  }
}

Digest& Digest::add(std::string_view part) {
  unsigned char length[8];
  std::uint64_t n = part.size();
  for (unsigned char& byte : length) {
    byte = static_cast<unsigned char>(n & 0xff);
    n >>= 8;
  }
  mix(length, sizeof length);
  mix(reinterpret_cast<const unsigned char*>(part.data()), part.size());
  return *this;
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

}  // namespace vodxbench
