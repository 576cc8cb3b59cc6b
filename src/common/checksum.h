#ifndef STREAMREL_COMMON_CHECKSUM_H_
#define STREAMREL_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace streamrel {

/// Every length-prefixed frame StreamRel writes, a wire frame
/// (net/protocol) or a WAL record (storage/wal), is laid out as
///   u32 payload length | u32 FrameChecksum(payload) | payload
/// with both integers in host byte order, like every integer in the
/// payloads.
constexpr size_t kFrameHeaderBytes = 2 * sizeof(uint32_t);

/// The checksum of every frame: two FNV-1a lanes over alternating 4-byte
/// words (eight bytes per step), XORed, then byte-wise FNV-1a over the
/// last n % 8 bytes. Each step is a bijection of its lane's state, so a
/// change confined to one of the payload's 4-byte words, or to one byte of
/// the tail, always changes the checksum, as with byte-wise FNV-1a: no
/// single-bit flip goes undetected.
uint32_t FrameChecksum(const char* data, size_t n);

/// Writing a frame in one pass: BeginFrame appends a header placeholder to
/// *out and returns where the frame starts; the caller appends the payload
/// straight after it; SealFrame then writes the payload's length and
/// checksum into the header.
size_t BeginFrame(std::string* out);
void SealFrame(size_t frame_start, std::string* out);

}  // namespace streamrel

#endif  // STREAMREL_COMMON_CHECKSUM_H_
