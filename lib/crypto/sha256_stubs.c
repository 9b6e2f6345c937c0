/* SHA-256 block function on the x86-64 SHA extensions.

   [zion_sha256_blocks h s off n] runs the compression function over the
   [n] 64-byte blocks of [s] starting at byte [off], updating the eight
   state words held in the OCaml int array [h]. The caller checks the
   range and calls it only when [zion_sha256_sha_ni_available] said yes;
   on other hosts the OCaml kernel in sha256.ml is the only one, and this
   file compiles to a stub that reports the instructions unavailable.

   The intrinsics are enabled per function with a target attribute, not
   with a compiler flag, so the library still runs on a CPU without
   them. Only C API that OCaml 4.14 also provides is used. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>

#include <stdint.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <cpuid.h>
#include <immintrin.h>

static const uint32_t k256[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

/* Four rounds: message words [m] (W[4j .. 4j+3]) plus their constants.
   sha256rnds2 runs two rounds on the low half of its third operand. */
#define ROUNDS4(m, j)                                                      \
  do {                                                                     \
    __m128i wk = _mm_add_epi32(                                            \
        (m), _mm_loadu_si128((const __m128i *)&k256[4 * (j)]));           \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);                          \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E)); \
  } while (0)

/* W[4(j+1) .. 4(j+1)+3] from the partial sum sha256msg1 left in [next],
   once [cur] (group j) and [prev] (group j-1) are known. */
#define SCHEDULE(next, prev, cur)                                          \
  do {                                                                     \
    (next) = _mm_add_epi32((next), _mm_alignr_epi8((cur), (prev), 4));     \
    (next) = _mm_sha256msg2_epu32((next), (cur));                          \
  } while (0)

__attribute__((target("sha,sse4.1,ssse3")))
static void sha256_blocks_sha_ni(uint32_t st[8], const unsigned char *p,
                                 intnat n)
{
  /* Big-endian message words into little-endian lanes. */
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  /* The instructions keep the state as A,B,E,F and C,D,G,H, highest
     lane first. */
  __m128i abef = _mm_set_epi32((int)st[0], (int)st[1], (int)st[4], (int)st[5]);
  __m128i cdgh = _mm_set_epi32((int)st[2], (int)st[3], (int)st[6], (int)st[7]);

  for (; n > 0; n--, p += 64) {
    __m128i abef0 = abef, cdgh0 = cdgh;
    __m128i m0, m1, m2, m3;
    int j;

    m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)p), bswap);
    m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);

    /* Group j of the schedule sits in m[j mod 4]. After group j's
       rounds, group j + 1 is finished from groups j - 1 and j, and then
       group j - 1's register starts group j + 3. */
    ROUNDS4(m0, 0);
    ROUNDS4(m1, 1); m0 = _mm_sha256msg1_epu32(m0, m1);
    ROUNDS4(m2, 2); m1 = _mm_sha256msg1_epu32(m1, m2);
    ROUNDS4(m3, 3); SCHEDULE(m0, m2, m3); m2 = _mm_sha256msg1_epu32(m2, m3);
    for (j = 4; j < 12; j += 4) {
      ROUNDS4(m0, j);     SCHEDULE(m1, m3, m0);
      m3 = _mm_sha256msg1_epu32(m3, m0);
      ROUNDS4(m1, j + 1); SCHEDULE(m2, m0, m1);
      m0 = _mm_sha256msg1_epu32(m0, m1);
      ROUNDS4(m2, j + 2); SCHEDULE(m3, m1, m2);
      m1 = _mm_sha256msg1_epu32(m1, m2);
      ROUNDS4(m3, j + 3); SCHEDULE(m0, m2, m3);
      m2 = _mm_sha256msg1_epu32(m2, m3);
    }
    ROUNDS4(m0, 12); SCHEDULE(m1, m3, m0); m3 = _mm_sha256msg1_epu32(m3, m0);
    ROUNDS4(m1, 13); SCHEDULE(m2, m0, m1);
    ROUNDS4(m2, 14); SCHEDULE(m3, m1, m2);
    ROUNDS4(m3, 15);

    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }

  st[0] = (uint32_t)_mm_extract_epi32(abef, 3);
  st[1] = (uint32_t)_mm_extract_epi32(abef, 2);
  st[4] = (uint32_t)_mm_extract_epi32(abef, 1);
  st[5] = (uint32_t)_mm_extract_epi32(abef, 0);
  st[2] = (uint32_t)_mm_extract_epi32(cdgh, 3);
  st[3] = (uint32_t)_mm_extract_epi32(cdgh, 2);
  st[6] = (uint32_t)_mm_extract_epi32(cdgh, 1);
  st[7] = (uint32_t)_mm_extract_epi32(cdgh, 0);
}

static int sha_ni_available(void)
{
  unsigned int a, b, c, d;
  if (__get_cpuid_max(0, 0) < 7) return 0;
  __cpuid(1, a, b, c, d);
  if (!(c & bit_SSSE3) || !(c & bit_SSE4_1)) return 0;
  __cpuid_count(7, 0, a, b, c, d);
  return (b & bit_SHA) != 0;
}

#else

static void sha256_blocks_sha_ni(uint32_t st[8], const unsigned char *p,
                                 intnat n)
{
  (void)st;
  (void)p;
  (void)n;
}

static int sha_ni_available(void) { return 0; }

#endif

value zion_sha256_sha_ni_available(value unit)
{
  (void)unit;
  return Val_bool(sha_ni_available());
}

value zion_sha256_blocks(value h, value s, intnat off, intnat n)
{
  uint32_t st[8];
  int i;
  if (n <= 0) return Val_unit;
  for (i = 0; i < 8; i++) st[i] = (uint32_t)Long_val(Field(h, i));
  sha256_blocks_sha_ni(st, (const unsigned char *)String_val(s) + off, n);
  /* Immediates over immediates: no write barrier is needed. */
  for (i = 0; i < 8; i++) Field(h, i) = Val_long(st[i]);
  return Val_unit;
}

value zion_sha256_blocks_byte(value h, value s, value off, value n)
{
  return zion_sha256_blocks(h, s, Long_val(off), Long_val(n));
}
