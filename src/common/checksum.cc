#include "common/checksum.h"

#include <cstring>

namespace streamrel {

uint32_t FrameChecksum(const char* data, size_t n) {
  constexpr uint32_t kPrime = 16777619u;
  constexpr uint32_t kBasis = 2166136261u;
  // The odd lane starts one zero-word step past the basis, so two lanes
  // fed equal words (an all-zero payload) do not cancel in the XOR.
  uint32_t even = kBasis;
  uint32_t odd = kBasis * kPrime;
  size_t i = 0;
  for (; i + 2 * sizeof(uint32_t) <= n; i += 2 * sizeof(uint32_t)) {
    uint32_t words[2];
    memcpy(words, data + i, sizeof(words));
    even = (even ^ words[0]) * kPrime;
    odd = (odd ^ words[1]) * kPrime;
  }
  uint32_t h = even ^ odd;
  for (; i < n; ++i) h = (h ^ static_cast<unsigned char>(data[i])) * kPrime;
  return h;
}

size_t BeginFrame(std::string* out) {
  const size_t start = out->size();
  out->append(kFrameHeaderBytes, '\0');
  return start;
}

void SealFrame(size_t frame_start, std::string* out) {
  char* header = out->data() + frame_start;
  const uint32_t len =
      static_cast<uint32_t>(out->size() - frame_start - kFrameHeaderBytes);
  const uint32_t sum = FrameChecksum(header + kFrameHeaderBytes, len);
  memcpy(header, &len, sizeof(len));
  memcpy(header + sizeof(len), &sum, sizeof(sum));
}

}  // namespace streamrel
