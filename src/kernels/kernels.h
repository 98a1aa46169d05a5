// Vectorized filter and verification kernels: popcount / Hamming distance
// primitives and the §6.3 posting select, with runtime CPU dispatch.
//
// Every pigeonring filter funnels its surviving candidates into
// popcount-heavy verification — full Hamming distance for §6.1, per-part box
// distances for the chain checks, and the alphabet-mask content filter of
// §6.3. This layer provides those primitives as batched, branch-light
// kernels over raw 64-bit word arrays (little-endian words, bit i of the
// vector = bit (i % 64) of word (i / 64), matching BitVector), plus the
// column scan that selects an edit posting list's survivors.
//
// Dispatch rules:
//   - The best instruction set is picked once at startup from
//     __builtin_cpu_supports: AVX-512 (F + VPOPCNTDQ), else AVX2, else the
//     portable std::popcount scalar path.
//   - Compiling with -DPIGEONRING_NO_SIMD (CMake option of the same name)
//     removes the SIMD paths entirely; non-x86-64 builds are scalar-only
//     automatically. PIGEONRING_KERNELS_X86_SIMD is defined exactly when
//     the SIMD paths exist.
//   - Tests and benches may pin a path with SetActiveIsa (e.g. to prove
//     scalar/SIMD parity or to measure a single path); requests for an
//     unsupported path are refused, never faked.
//   - Popcounts outside the vector paths: on baseline x86-64 (no -mpopcnt,
//     which the build does not pass) std::popcount compiles to a call to
//     libgcc's __popcountdi2, a table-driven routine. Hot loops that live
//     outside this layer therefore pick the popcount instruction
//     themselves when ActiveIsa() is AVX2 or AVX-512 (every such CPU has
//     it), through a function compiled with target("popcnt"): the edit
//     searcher's chain check (editdist/pivotal.cc) does. The scalar path
//     and NO_SIMD builds keep the portable loop. HammingDistanceRangeWords
//     still calls __popcountdi2 for its head and tail words.
//
// All kernels are pure functions of their arguments and are safe to call
// concurrently; SetActiveIsa is not thread-safe and is meant for test and
// bench setup only.

#ifndef PIGEONRING_KERNELS_KERNELS_H_
#define PIGEONRING_KERNELS_KERNELS_H_

#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(PIGEONRING_NO_SIMD)
#define PIGEONRING_KERNELS_X86_SIMD 1
#endif

namespace pigeonring::kernels {

class FlatBitTable;

/// Instruction sets the dispatcher can target, weakest first.
enum class Isa {
  kScalar = 0,  // portable std::popcount word loop
  kAvx2 = 1,    // 256-bit nibble-LUT popcount (vpshufb + vpsadbw)
  kAvx512 = 2,  // 512-bit vpopcntq (requires AVX-512F + VPOPCNTDQ)
};

/// Human-readable name ("scalar", "avx2", "avx512").
const char* IsaName(Isa isa);

/// The best instruction set supported by this CPU and build.
Isa BestIsa();

/// The instruction set kernel calls currently dispatch to.
Isa ActiveIsa();

/// Pins dispatch to `isa` if it is supported; returns whether it took
/// effect. Not thread-safe; for test and bench setup only.
bool SetActiveIsa(Isa isa);

/// Number of set bits across `num_words` words.
int PopcountWords(const uint64_t* words, int num_words);

/// Hamming distance between two `num_words`-word vectors:
/// sum of popcount(a[i] ^ b[i]).
int HammingDistanceWords(const uint64_t* a, const uint64_t* b, int num_words);

/// Early-exit threshold test: returns true iff the Hamming distance is
/// <= tau. When it returns true and `distance` is non-null, *distance is
/// the exact distance; when it returns false, *distance is some partial
/// sum > tau (the kernel stops counting as soon as tau is exceeded).
bool HammingDistanceLeqWords(const uint64_t* a, const uint64_t* b,
                             int num_words, int tau, int* distance = nullptr);

/// Hamming distance restricted to the bit range [begin_bit, end_bit): the
/// per-part box value b_i(x, q) of §6.1. Both arrays must cover the range.
int HammingDistanceRangeWords(const uint64_t* a, const uint64_t* b,
                              int begin_bit, int end_bit);

/// Batched verification against a flat candidate table: for each of the
/// `n` ids, verdicts[i] = 1 iff the Hamming distance between table row
/// ids[i] and `query` is <= tau, else 0. `query` must hold
/// table.words_per_row() words. When `distances` is non-null it receives
/// the exact distance for passing rows (value > tau otherwise, as in
/// HammingDistanceLeqWords). Rows ahead of the cursor are prefetched.
/// Returns the number of passing ids.
int VerifyHammingLeqBatch(const FlatBitTable& table, const uint64_t* query,
                          int tau, const int* ids, int n, uint8_t* verdicts,
                          int* distances = nullptr);

/// One posting list of the §6.3 edit filter as parallel columns: entry k
/// is record ids[k]'s gram at positions[k], with the record's length and
/// prefix-last rank. `ids` never descend.
struct PostingList {
  const int* ids = nullptr;
  const int* positions = nullptr;
  const int* lengths = nullptr;
  const int* prefix_last_ranks = nullptr;
  int size = 0;
};

/// The probe side of SelectPostings. An entry is in range iff its id is
/// below `id_end`, and survives iff it also passes
///   - the side test: prefix_last_rank <= rank when `x_side` (the record's
///     prefix ends first), prefix_last_rank > rank otherwise;
///   - the position test: |position - this->position| <= tau;
///   - the length test: |length - this->length| <= tau.
struct PostingTest {
  int id_end = 0;
  bool x_side = true;
  int rank = 0;
  int position = 0;
  int length = 0;
  int tau = 0;
};

/// How far past its last survivor a select may write: the vector paths
/// store whole 16-lane blocks.
inline constexpr int kSelectSlack = 16;

struct SelectCounts {
  int in_range = 0;  // the list prefix with ids below test.id_end
  int selected = 0;  // survivors written to `selected`
};

/// Scans `list` in order, stops at the first id >= test.id_end, and writes
/// the list offsets of the in-range survivors of `test` to `selected`, in
/// list order. `selected` needs room for list.size + kSelectSlack entries.
SelectCounts SelectPostings(const PostingList& list, const PostingTest& test,
                            int* selected);

}  // namespace pigeonring::kernels

#endif  // PIGEONRING_KERNELS_KERNELS_H_
