// Output digests: a pass's deterministic outputs must hash identically
// across passes, job counts and runs of the same seed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace vodxbench {

/// Incremental 64-bit FNV-1a. Each part is length-prefixed, so
/// ("ab", "c") and ("a", "bc") digest differently.
class Digest {
 public:
  Digest& add(std::string_view part);
  std::uint64_t value() const { return state_; }
  /// 16 lowercase hex digits.
  std::string hex() const;

 private:
  void mix(const unsigned char* data, std::size_t size);

  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

}  // namespace vodxbench
