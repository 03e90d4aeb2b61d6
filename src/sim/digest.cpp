#include "sim/digest.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace fle {

namespace {

constexpr std::array<std::uint32_t, 64> kRound = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu, 0x59f111f1u,
    0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u, 0x243185beu, 0x550c7dc3u,
    0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u, 0xc19bf174u, 0xe49b69c1u, 0xefbe4786u,
    0x0fc19dc6u, 0x240ca1ccu, 0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau,
    0x983e5152u, 0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu, 0x53380d13u,
    0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u, 0xa2bfe8a1u, 0xa81a664bu,
    0xc24b8b70u, 0xc76c51a3u, 0xd192e819u, 0xd6990624u, 0xf40e3585u, 0x106aa070u,
    0x19a4c116u, 0x1e376c08u, 0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au,
    0x5b9cca4fu, 0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u};

std::uint32_t rotr(std::uint32_t value, int bits) {
  return (value >> bits) | (value << (32 - bits));
}

constexpr char kHexDigits[] = "0123456789abcdef";

}  // namespace

std::string Digest256::hex() const {
  std::string out;
  out.reserve(64);
  for (const std::uint8_t byte : bytes) {
    out += kHexDigits[byte >> 4];
    out += kHexDigits[byte & 0xf];
  }
  return out;
}

std::optional<Digest256> Digest256::from_hex(std::string_view text) {
  if (text.size() != 64) return std::nullopt;
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  Digest256 out;
  for (std::size_t i = 0; i < 32; ++i) {
    const int hi = nibble(text[2 * i]);
    const int lo = nibble(text[2 * i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.bytes[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return out;
}

void Sha256::reset() {
  state_ = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
            0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  total_bytes_ = 0;
  buffered_ = 0;
}

namespace detail {

void sha256_compress_portable(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
                              std::size_t blocks) {
  for (; blocks != 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
             (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__) || defined(__i386__)

namespace {

// The SHA-NI path is compiled for these extensions function by function,
// so the library still builds and runs on baseline x86; it is only called
// after cpuid has confirmed them.
#define FLE_SHA_NI __attribute__((target("sha,sse4.1,ssse3")))

// Four rounds: the message group plus its round constants, split across two
// sha256rnds2 steps (each consumes the low two words).  `abef` and `cdgh`
// are the state in the instruction's register layout.
FLE_SHA_NI inline void sha_ni_rounds(__m128i& abef, __m128i& cdgh, __m128i group, int index) {
  const __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRound[4 * index]));
  const __m128i wk = _mm_add_epi32(group, k);
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

// The next message group W[t..t+3] from W[t-16..t-13], W[t-12..t-9],
// W[t-8..t-5] and W[t-4..t-1].
FLE_SHA_NI inline __m128i sha_ni_schedule(__m128i w16, __m128i w12, __m128i w8, __m128i w4) {
  const __m128i partial = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12),
                                        _mm_alignr_epi8(w4, w8, 4));  // + W[t-7..t-4]
  return _mm_sha256msg2_epu32(partial, w4);
}

// Four big-endian message words.
FLE_SHA_NI inline __m128i sha_ni_load(const std::uint8_t* data) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data)), byte_swap);
}

FLE_SHA_NI void sha256_compress_sha_ni_impl(std::array<std::uint32_t, 8>& state,
                                            const std::uint8_t* data, std::size_t blocks) {
  // state[0..7] = A..H  ->  abef = {F, E, B, A}, cdgh = {H, G, D, C} (low lane first).
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; blocks != 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = sha_ni_load(data);
    __m128i w1 = sha_ni_load(data + 16);
    __m128i w2 = sha_ni_load(data + 32);
    __m128i w3 = sha_ni_load(data + 48);
    sha_ni_rounds(abef, cdgh, w0, 0);
    sha_ni_rounds(abef, cdgh, w1, 1);
    sha_ni_rounds(abef, cdgh, w2, 2);
    sha_ni_rounds(abef, cdgh, w3, 3);
    for (int group = 4; group < 16; group += 4) {
      w0 = sha_ni_schedule(w0, w1, w2, w3);
      sha_ni_rounds(abef, cdgh, w0, group);
      w1 = sha_ni_schedule(w1, w2, w3, w0);
      sha_ni_rounds(abef, cdgh, w1, group + 1);
      w2 = sha_ni_schedule(w2, w3, w0, w1);
      sha_ni_rounds(abef, cdgh, w2, group + 2);
      w3 = sha_ni_schedule(w3, w0, w1, w2);
      sha_ni_rounds(abef, cdgh, w3, group + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // Back to A..H order.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), _mm_alignr_epi8(dchg, feba, 8));
}

#undef FLE_SHA_NI

}  // namespace

Sha256Compress sha256_compress_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return nullptr;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return nullptr;
  const bool sha = (ebx & (1u << 29)) != 0;
  return ssse3 && sse41 && sha ? &sha256_compress_sha_ni_impl : nullptr;
}

#else

Sha256Compress sha256_compress_sha_ni() { return nullptr; }

#endif

}  // namespace detail

namespace {

/// The compression function every Sha256 uses, chosen once per process on
/// first use (so a hash taken during another file's static initialization
/// is dispatched too).
void compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* data, std::size_t blocks) {
  static const detail::Sha256Compress chosen = [] {
    const detail::Sha256Compress hardware = detail::sha256_compress_sha_ni();
    return hardware != nullptr ? hardware : &detail::sha256_compress_portable;
  }();
  chosen(state, data, blocks);
}

}  // namespace

void Sha256::update(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  total_bytes_ += size;
  if (buffered_ != 0) {
    const std::size_t take = std::min(size, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, bytes, take);
    buffered_ += take;
    bytes += take;
    size -= take;
    if (buffered_ == buffer_.size()) {
      compress(state_, buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  const std::size_t blocks = size / 64;
  if (blocks != 0) {
    compress(state_, bytes, blocks);
    bytes += 64 * blocks;
    size -= 64 * blocks;
  }
  if (size != 0) {
    std::memcpy(buffer_.data(), bytes, size);
    buffered_ = size;
  }
}

Digest256 Sha256::finish() {
  // Padding: 0x80, zeros up to byte 56 of a block, the 64-bit big-endian
  // bit length.  One block, or two when the tail leaves no room for the length.
  const std::uint64_t bit_length = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, buffer_.size() - buffered_);
    compress(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  compress(state_, buffer_.data(), 1);
  Digest256 out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out.bytes[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out.bytes[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out.bytes[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  reset();
  return out;
}

Digest256 Sha256::of(std::span<const std::uint8_t> bytes) {
  Sha256 hasher;
  hasher.update(bytes);
  return hasher.finish();
}

Digest256 Sha256::of_string(std::string_view text) {
  Sha256 hasher;
  hasher.update(text.data(), text.size());
  return hasher.finish();
}

}  // namespace fle
