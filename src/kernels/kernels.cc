#include "kernels/kernels.h"

#include <atomic>
#include <bit>
#include <cstdlib>

#include "common/logging.h"
#include "kernels/flat_bit_table.h"

// SIMD paths exist only on x86-64 GCC/clang builds and can be compiled out
// with -DPIGEONRING_NO_SIMD (kernels.h defines PIGEONRING_KERNELS_X86_SIMD
// exactly when they exist). The implementations use per-function target
// attributes, so the translation unit itself needs no -mavx* flags and the
// binary stays runnable on machines without the extensions.
#ifdef PIGEONRING_KERNELS_X86_SIMD
#include <immintrin.h>
#endif

namespace pigeonring::kernels {

namespace {

// ---------------------------------------------------------------------------
// Scalar path: portable std::popcount over 64-bit words.
// ---------------------------------------------------------------------------

int PopcountScalar(const uint64_t* words, int num_words) {
  int total = 0;
  for (int i = 0; i < num_words; ++i) total += std::popcount(words[i]);
  return total;
}

int HammingScalar(const uint64_t* a, const uint64_t* b, int num_words) {
  int total = 0;
  int i = 0;
  // Four independent accumulators hide the popcount latency chain.
  int t0 = 0, t1 = 0, t2 = 0, t3 = 0;
  for (; i + 4 <= num_words; i += 4) {
    t0 += std::popcount(a[i] ^ b[i]);
    t1 += std::popcount(a[i + 1] ^ b[i + 1]);
    t2 += std::popcount(a[i + 2] ^ b[i + 2]);
    t3 += std::popcount(a[i + 3] ^ b[i + 3]);
  }
  total = t0 + t1 + t2 + t3;
  for (; i < num_words; ++i) total += std::popcount(a[i] ^ b[i]);
  return total;
}

bool HammingLeqScalar(const uint64_t* a, const uint64_t* b, int num_words,
                      int tau, int* distance) {
  int total = 0;
  int i = 0;
  // Early exit every two words: random far-apart vectors cross tau in the
  // first block and skip the rest of the row.
  for (; i + 2 <= num_words; i += 2) {
    total += std::popcount(a[i] ^ b[i]) + std::popcount(a[i + 1] ^ b[i + 1]);
    if (total > tau) {
      if (distance != nullptr) *distance = total;
      return false;
    }
  }
  if (i < num_words) total += std::popcount(a[i] ^ b[i]);
  if (distance != nullptr) *distance = total;
  return total <= tau;
}

// Whether entry k of `list` passes `test`'s side, position and length
// tests (the id test is the caller's).
inline int PassesPostingTest(const PostingList& list, int k,
                             const PostingTest& test) {
  return ((list.prefix_last_ranks[k] <= test.rank) == test.x_side) &
         (std::abs(list.positions[k] - test.position) <= test.tau) &
         (std::abs(list.lengths[k] - test.length) <= test.tau);
}

// Selects from entry k on, `count` survivors already written. Branch-free
// per entry: every offset is written, and the count advances only for
// survivors.
inline SelectCounts SelectFrom(const PostingList& list,
                               const PostingTest& test, int k, int count,
                               int* selected) {
  for (; k < list.size && list.ids[k] < test.id_end; ++k) {
    selected[count] = k;
    count += PassesPostingTest(list, k, test);
  }
  return {k, count};
}

SelectCounts SelectPostingsScalar(const PostingList& list,
                                  const PostingTest& test, int* selected) {
  return SelectFrom(list, test, 0, 0, selected);
}

#ifdef PIGEONRING_KERNELS_X86_SIMD

// ---------------------------------------------------------------------------
// AVX2 path: nibble-LUT popcount (vpshufb) accumulated with vpsadbw.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i Popcount256(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  // Sum the 32 byte counts into four 64-bit lane totals.
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

// Lane mask for a tail of `r` (0..3) remaining 64-bit words: lane j loads
// iff j < r (vpmaskmovq reads the sign bit of each 64-bit lane).
__attribute__((target("avx2"))) inline __m256i TailMask256(int r) {
  const __m256i lanes = _mm256_setr_epi64x(0, 1, 2, 3);
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(r), lanes);
}

__attribute__((target("avx2"))) inline int HorizontalSum256(__m256i acc) {
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<int>(_mm_cvtsi128_si64(sum) +
                          _mm_extract_epi64(sum, 1));
}

__attribute__((target("avx2"))) int PopcountAvx2(const uint64_t* words,
                                                 int num_words) {
  __m256i acc = _mm256_setzero_si256();
  int i = 0;
  for (; i + 4 <= num_words; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    acc = _mm256_add_epi64(acc, Popcount256(v));
  }
  if (i < num_words) {
    const __m256i v = _mm256_maskload_epi64(
        reinterpret_cast<const long long*>(words + i),
        TailMask256(num_words - i));
    acc = _mm256_add_epi64(acc, Popcount256(v));
  }
  return HorizontalSum256(acc);
}

__attribute__((target("avx2"))) int HammingAvx2(const uint64_t* a,
                                                const uint64_t* b,
                                                int num_words) {
  __m256i acc = _mm256_setzero_si256();
  int i = 0;
  for (; i + 4 <= num_words; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, Popcount256(_mm256_xor_si256(va, vb)));
  }
  if (i < num_words) {
    const __m256i mask = TailMask256(num_words - i);
    const __m256i va =
        _mm256_maskload_epi64(reinterpret_cast<const long long*>(a + i), mask);
    const __m256i vb =
        _mm256_maskload_epi64(reinterpret_cast<const long long*>(b + i), mask);
    acc = _mm256_add_epi64(acc, Popcount256(_mm256_xor_si256(va, vb)));
  }
  return HorizontalSum256(acc);
}

__attribute__((target("avx2"))) bool HammingLeqAvx2(const uint64_t* a,
                                                    const uint64_t* b,
                                                    int num_words, int tau,
                                                    int* distance) {
  __m256i acc = _mm256_setzero_si256();
  int i = 0;
  // Early exit every 256 bits; the horizontal sum is cheap relative to the
  // skipped work whenever the running total has already crossed tau.
  for (; i + 4 <= num_words; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, Popcount256(_mm256_xor_si256(va, vb)));
    const int so_far = HorizontalSum256(acc);
    if (so_far > tau) {
      if (distance != nullptr) *distance = so_far;
      return false;
    }
  }
  if (i < num_words) {
    const __m256i mask = TailMask256(num_words - i);
    const __m256i va =
        _mm256_maskload_epi64(reinterpret_cast<const long long*>(a + i), mask);
    const __m256i vb =
        _mm256_maskload_epi64(reinterpret_cast<const long long*>(b + i), mask);
    acc = _mm256_add_epi64(acc, Popcount256(_mm256_xor_si256(va, vb)));
  }
  const int total = HorizontalSum256(acc);
  if (distance != nullptr) *distance = total;
  return total <= tau;
}

// Lanes of column[0..8) in [lo, lo + span]: v - lo <= span unsigned, i.e.
// min_epu32(v - lo, span) == v - lo.
__attribute__((target("avx2"))) inline __m256i Within256(const int* column,
                                                         __m256i lo,
                                                         __m256i span) {
  const __m256i d = _mm256_sub_epi32(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(column)), lo);
  return _mm256_cmpeq_epi32(_mm256_min_epu32(d, span), d);
}

// Eight postings a block: the id, side, position and length tests as lane
// masks, survivors written one per set bit. In-range lanes form a prefix
// of the block (ids never descend), so a block with an out-of-range lane
// is the last one.
__attribute__((target("avx2"))) SelectCounts SelectPostingsAvx2(
    const PostingList& list, const PostingTest& test, int* selected) {
  const __m256i end = _mm256_set1_epi32(test.id_end);
  const __m256i rank = _mm256_set1_epi32(test.rank);
  // Flips "rank > test.rank" into the x side's "rank <= test.rank".
  const __m256i flip = _mm256_set1_epi32(test.x_side ? -1 : 0);
  const __m256i position_lo = _mm256_set1_epi32(test.position - test.tau);
  const __m256i length_lo = _mm256_set1_epi32(test.length - test.tau);
  const __m256i span = _mm256_set1_epi32(2 * test.tau);
  int count = 0;
  int k = 0;
  for (; k + 8 <= list.size; k += 8) {
    const __m256i ids =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(list.ids + k));
    const unsigned in = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(end, ids))));
    const __m256i later = _mm256_cmpgt_epi32(
        _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(list.prefix_last_ranks + k)),
        rank);
    const __m256i keep_lanes = _mm256_and_si256(
        _mm256_xor_si256(later, flip),
        _mm256_and_si256(Within256(list.positions + k, position_lo, span),
                         Within256(list.lengths + k, length_lo, span)));
    unsigned keep = in & static_cast<unsigned>(_mm256_movemask_ps(
                             _mm256_castsi256_ps(keep_lanes)));
    while (keep != 0) {
      selected[count++] = k + __builtin_ctz(keep);
      keep &= keep - 1;
    }
    if (in != 0xFFu) return {k + __builtin_ctz(~in), count};
  }
  return SelectFrom(list, test, k, count, selected);
}

// ---------------------------------------------------------------------------
// AVX-512 path: hardware vpopcntq (AVX-512F + VPOPCNTDQ).
// ---------------------------------------------------------------------------

// GCC's own avx512fintrin.h passes _mm256_undefined_si256() through
// _mm512_reduce_add_epi64, which -Wmaybe-uninitialized flags when inlined
// into target-attributed functions; the value is masked off before use.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

__attribute__((target("avx512f,avx512vpopcntdq"))) int PopcountAvx512(
    const uint64_t* words, int num_words) {
  __m512i acc = _mm512_setzero_si512();
  int i = 0;
  for (; i + 8 <= num_words; i += 8) {
    const __m512i v =
        _mm512_loadu_si512(reinterpret_cast<const void*>(words + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  if (i < num_words) {
    const __mmask8 mask =
        static_cast<__mmask8>((1u << (num_words - i)) - 1u);
    const __m512i v = _mm512_maskz_loadu_epi64(mask, words + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  return static_cast<int>(_mm512_reduce_add_epi64(acc));
}

__attribute__((target("avx512f,avx512vpopcntdq"))) int HammingAvx512(
    const uint64_t* a, const uint64_t* b, int num_words) {
  __m512i acc = _mm512_setzero_si512();
  int i = 0;
  for (; i + 8 <= num_words; i += 8) {
    const __m512i va =
        _mm512_loadu_si512(reinterpret_cast<const void*>(a + i));
    const __m512i vb =
        _mm512_loadu_si512(reinterpret_cast<const void*>(b + i));
    acc = _mm512_add_epi64(acc,
                           _mm512_popcnt_epi64(_mm512_xor_si512(va, vb)));
  }
  if (i < num_words) {
    const __mmask8 mask =
        static_cast<__mmask8>((1u << (num_words - i)) - 1u);
    const __m512i va = _mm512_maskz_loadu_epi64(mask, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi64(mask, b + i);
    acc = _mm512_add_epi64(acc,
                           _mm512_popcnt_epi64(_mm512_xor_si512(va, vb)));
  }
  return static_cast<int>(_mm512_reduce_add_epi64(acc));
}

__attribute__((target("avx512f,avx512vpopcntdq"))) bool HammingLeqAvx512(
    const uint64_t* a, const uint64_t* b, int num_words, int tau,
    int* distance) {
  __m512i acc = _mm512_setzero_si512();
  int i = 0;
  for (; i + 8 <= num_words; i += 8) {
    const __m512i va =
        _mm512_loadu_si512(reinterpret_cast<const void*>(a + i));
    const __m512i vb =
        _mm512_loadu_si512(reinterpret_cast<const void*>(b + i));
    acc = _mm512_add_epi64(acc,
                           _mm512_popcnt_epi64(_mm512_xor_si512(va, vb)));
    const int so_far = static_cast<int>(_mm512_reduce_add_epi64(acc));
    if (so_far > tau) {
      if (distance != nullptr) *distance = so_far;
      return false;
    }
  }
  if (i < num_words) {
    const __mmask8 mask =
        static_cast<__mmask8>((1u << (num_words - i)) - 1u);
    const __m512i va = _mm512_maskz_loadu_epi64(mask, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi64(mask, b + i);
    acc = _mm512_add_epi64(acc,
                           _mm512_popcnt_epi64(_mm512_xor_si512(va, vb)));
  }
  const int total = static_cast<int>(_mm512_reduce_add_epi64(acc));
  if (distance != nullptr) *distance = total;
  return total <= tau;
}

// Sixteen postings a block under lane masks (the tail block masks its
// loads, so nothing past the list is read); survivors are compressed into
// a register and stored as a whole block, hence kSelectSlack.
__attribute__((target("avx512f,popcnt"))) SelectCounts SelectPostingsAvx512(
    const PostingList& list, const PostingTest& test, int* selected) {
  const __m512i lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                          11, 12, 13, 14, 15);
  const __m512i end = _mm512_set1_epi32(test.id_end);
  const __m512i rank = _mm512_set1_epi32(test.rank);
  const __m512i position_lo = _mm512_set1_epi32(test.position - test.tau);
  const __m512i length_lo = _mm512_set1_epi32(test.length - test.tau);
  const __m512i span = _mm512_set1_epi32(2 * test.tau);
  int count = 0;
  for (int k = 0; k < list.size; k += 16) {
    const int left = list.size - k;
    const __mmask16 live =
        left >= 16 ? __mmask16{0xFFFF}
                   : static_cast<__mmask16>((1u << left) - 1u);
    const __mmask16 in = _mm512_mask_cmplt_epi32_mask(
        live, _mm512_maskz_loadu_epi32(live, list.ids + k), end);
    const __mmask16 later = _mm512_mask_cmpgt_epi32_mask(
        in, _mm512_maskz_loadu_epi32(in, list.prefix_last_ranks + k), rank);
    __mmask16 keep = test.x_side ? static_cast<__mmask16>(in & ~later) : later;
    // v in [lo, lo + span] iff (v - lo) <= span unsigned.
    keep = _mm512_mask_cmple_epu32_mask(
        keep,
        _mm512_sub_epi32(_mm512_maskz_loadu_epi32(keep, list.positions + k),
                         position_lo),
        span);
    keep = _mm512_mask_cmple_epu32_mask(
        keep,
        _mm512_sub_epi32(_mm512_maskz_loadu_epi32(keep, list.lengths + k),
                         length_lo),
        span);
    _mm512_storeu_si512(
        selected + count,
        _mm512_maskz_compress_epi32(
            keep, _mm512_add_epi32(lanes, _mm512_set1_epi32(k))));
    count += __builtin_popcount(keep);
    if (in != live) return {k + __builtin_ctz(~unsigned{in}), count};
  }
  return {list.size, count};
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // PIGEONRING_KERNELS_X86_SIMD

// ---------------------------------------------------------------------------
// Dispatch table.
// ---------------------------------------------------------------------------

struct Vtable {
  Isa isa;
  int (*popcount)(const uint64_t*, int);
  int (*hamming)(const uint64_t*, const uint64_t*, int);
  bool (*hamming_leq)(const uint64_t*, const uint64_t*, int, int, int*);
  SelectCounts (*select_postings)(const PostingList&, const PostingTest&,
                                  int*);
};

constexpr Vtable kScalarVtable = {Isa::kScalar, PopcountScalar, HammingScalar,
                                  HammingLeqScalar, SelectPostingsScalar};

#ifdef PIGEONRING_KERNELS_X86_SIMD
constexpr Vtable kAvx2Vtable = {Isa::kAvx2, PopcountAvx2, HammingAvx2,
                                HammingLeqAvx2, SelectPostingsAvx2};
constexpr Vtable kAvx512Vtable = {Isa::kAvx512, PopcountAvx512, HammingAvx512,
                                  HammingLeqAvx512, SelectPostingsAvx512};
#endif

bool IsaSupported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
#ifdef PIGEONRING_KERNELS_X86_SIMD
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512vpopcntdq") != 0;
#else
    case Isa::kAvx2:
    case Isa::kAvx512:
      return false;
#endif
  }
  return false;
}

const Vtable* VtableFor(Isa isa) {
#ifdef PIGEONRING_KERNELS_X86_SIMD
  if (isa == Isa::kAvx512) return &kAvx512Vtable;
  if (isa == Isa::kAvx2) return &kAvx2Vtable;
#else
  (void)isa;
#endif
  return &kScalarVtable;
}

// Resolved lazily on first use rather than at static-init time:
// __builtin_cpu_supports is only safe after the libgcc CPU-model
// constructor has run, and kernel calls from other translation units'
// initializers would otherwise race that. The benign first-call race
// (every thread computes the same pointer) is made TSan-clean by the
// atomic.
std::atomic<const Vtable*> g_active{nullptr};

const Vtable* Active() {
  const Vtable* v = g_active.load(std::memory_order_acquire);
  if (v == nullptr) {
    v = VtableFor(BestIsa());
    g_active.store(v, std::memory_order_release);
  }
  return v;
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

Isa BestIsa() {
#ifdef PIGEONRING_KERNELS_X86_SIMD
  __builtin_cpu_init();
#endif
  if (IsaSupported(Isa::kAvx512)) return Isa::kAvx512;
  if (IsaSupported(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kScalar;
}

Isa ActiveIsa() { return Active()->isa; }

bool SetActiveIsa(Isa isa) {
#ifdef PIGEONRING_KERNELS_X86_SIMD
  __builtin_cpu_init();
#endif
  if (!IsaSupported(isa)) return false;
  g_active.store(VtableFor(isa), std::memory_order_release);
  return true;
}

int PopcountWords(const uint64_t* words, int num_words) {
  return Active()->popcount(words, num_words);
}

int HammingDistanceWords(const uint64_t* a, const uint64_t* b,
                         int num_words) {
  return Active()->hamming(a, b, num_words);
}

bool HammingDistanceLeqWords(const uint64_t* a, const uint64_t* b,
                             int num_words, int tau, int* distance) {
  return Active()->hamming_leq(a, b, num_words, tau, distance);
}

int HammingDistanceRangeWords(const uint64_t* a, const uint64_t* b,
                              int begin_bit, int end_bit) {
  PR_DCHECK(0 <= begin_bit && begin_bit <= end_bit);
  if (begin_bit == end_bit) return 0;
  const int first_word = begin_bit >> 6;
  const int last_word = (end_bit - 1) >> 6;
  const uint64_t head_mask = ~uint64_t{0} << (begin_bit & 63);
  const int end_offset = ((end_bit - 1) & 63) + 1;  // bits used in last word
  const uint64_t tail_mask =
      end_offset == 64 ? ~uint64_t{0} : (uint64_t{1} << end_offset) - 1;
  if (first_word == last_word) {
    return std::popcount((a[first_word] ^ b[first_word]) & head_mask &
                         tail_mask);
  }
  int total = std::popcount((a[first_word] ^ b[first_word]) & head_mask);
  total += std::popcount((a[last_word] ^ b[last_word]) & tail_mask);
  const int inner = last_word - first_word - 1;
  if (inner > 0) {
    total +=
        Active()->hamming(a + first_word + 1, b + first_word + 1, inner);
  }
  return total;
}

SelectCounts SelectPostings(const PostingList& list, const PostingTest& test,
                            int* selected) {
  if (list.size <= 0) return {};
  return Active()->select_postings(list, test, selected);
}

int VerifyHammingLeqBatch(const FlatBitTable& table, const uint64_t* query,
                          int tau, const int* ids, int n, uint8_t* verdicts,
                          int* distances) {
  const int num_words = table.words_per_row();
  int hits = 0;
  constexpr int kPrefetchAhead = 4;
  if (num_words <= 4) {
    // Rows fit a single cache line: the per-row indirect call and the
    // prefetch cost more than they save, so verify with an inlined scalar
    // loop (same 2-word early-exit schedule as HammingLeqScalar, hence
    // identical outputs). The query words are hoisted into locals — the
    // uint8_t verdict stores may alias `query` as far as the compiler
    // knows, and would otherwise force a reload per row.
    uint64_t q[4] = {0, 0, 0, 0};
    for (int w = 0; w < num_words; ++w) q[w] = query[w];
    for (int i = 0; i < n; ++i) {
      const uint64_t* row = table.row(ids[i]);
      int total = 0;
      int w = 0;
      for (; w + 2 <= num_words; w += 2) {
        total += std::popcount(row[w] ^ q[w]) +
                 std::popcount(row[w + 1] ^ q[w + 1]);
        if (total > tau) break;
      }
      if (total <= tau && w < num_words) {
        total += std::popcount(row[w] ^ q[w]);
      }
      const bool ok = total <= tau;
      verdicts[i] = ok ? 1 : 0;
      hits += ok ? 1 : 0;
      if (distances != nullptr) distances[i] = total;
    }
    return hits;
  }
  const auto leq = Active()->hamming_leq;
  for (int i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      __builtin_prefetch(table.row(ids[i + kPrefetchAhead]), 0, 1);
    }
    int dist = 0;
    const bool ok = leq(table.row(ids[i]), query, num_words, tau, &dist);
    verdicts[i] = ok ? 1 : 0;
    hits += ok ? 1 : 0;
    if (distances != nullptr) distances[i] = dist;
  }
  return hits;
}

}  // namespace pigeonring::kernels
