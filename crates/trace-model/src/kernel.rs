//! Branch-light merge kernels over packed `u64` slices.
//!
//! Every exact path of the MinSigTree index bottoms out in sorted-set
//! intersections ([`crate::cell::CellSet`]) and element-wise signature merges.
//! This module isolates those innermost loops so they operate on flat `&[u64]`
//! slices with no pointer chasing and (for the similar-size case) no
//! data-dependent branches, which lets the compiler keep the loop bodies in
//! registers and autovectorize the comparisons.
//!
//! Three intersection kernels are provided, all returning the exact same count:
//!
//! * [`intersection_len_merge`] — the three-way-compare two-pointer merge.
//!   LLVM lowers the match arms to conditional moves, so the compiled loop is
//!   already branch-light; it doubles as the readable conformance oracle.
//! * [`intersection_len_gallop`] — iterates the smaller set and locates each
//!   element in the larger one by exponential (galloping) search, giving
//!   `O(small · log(large / small))` work.  Fastest when the sizes are skewed.
//! * [`intersection_len_simd`] — explicit [`SIMD_LANES`]-wide block
//!   intersection using AVX2 intrinsics (the scalar merge where the CPU has
//!   no AVX2).  Fastest on similar-size inputs past the tiny regime.
//!
//! [`intersection_len`] dispatches between them: tiny inputs (≤ [`TINY_LEN`]
//! on both sides) take a branch-free all-pairs loop, heavily skewed sizes
//! (ratio ≥ [`GALLOP_SKEW`]) gallop, and the similar-size regime takes the
//! SIMD kernel when the CPU the process runs on has AVX2 (detected once, at
//! run time; the scalar merge otherwise).  [`dispatch_class`] exposes the
//! decision as a pure function of the two lengths and that CPU so callers can
//! account which kernel a given intersection used without instrumenting the
//! hot loop itself.
//!
//! All kernels require their inputs sorted ascending and deduplicated; every
//! public entry point `debug_assert!`s that invariant.
//!
//! ## Keyed rows
//!
//! A packed row is not the only form a cell row can take.  [`push_keyed`]
//! regroups one into a [`KeyedRow`] — a Roaring-style container (Lemire et
//! al., arXiv:1402.6407) over `(unit, 64-time-unit word)`: sorted unique keys,
//! one per unit and word the row touches, each with a parallel `u64` mask
//! whose bit `time & 63` is set for every time unit of that word the row
//! holds.  A key is the packed cell with the time's low six bits cleared
//! (`(time >> 6) << 38 | unit`), so keyed rows ascend time-major like
//! packed ones and converting is one pass ([`push_keyed`]).  A
//! trace that stays in one unit for a while puts many cells under one key,
//! so a keyed row is several times shorter than its packed row, and
//! [`keyed_overlap`] — a merge over the keys that sums `popcount(a & b)` on
//! equal keys — walks correspondingly fewer entries.  The keyed form is a
//! bijection of the packed one (a cell is in the row iff its key is and its
//! mask bit is set), so the count is the same integer `|A ∩ B|`, and
//! [`push_packed`] turns a keyed row back into its packed row.  Which form
//! a pair of rows is intersected in is [`row_class`], again a pure function
//! of lengths.

/// Size-ratio threshold for switching from the two-pointer merge to galloping:
/// gallop when `max_len >= GALLOP_SKEW * min_len`.
///
/// The merge inspects `O(min + max)` elements while galloping inspects
/// `O(min · log(max / min))`; at a ratio of 8 the logarithmic factor is already
/// amortised and galloping wins on every measured size.
pub const GALLOP_SKEW: usize = 8;

/// Inputs where *both* sides are at most this long skip kernel dispatch
/// entirely and take a branch-free all-pairs comparison loop (at most
/// `TINY_LEN²` = 64 compares, no data-dependent branches at all).
pub const TINY_LEN: usize = 8;

/// Lane width (in `u64` elements) of the SIMD intersection kernel
/// ([`intersection_len_simd`]'s AVX2 path).
pub const SIMD_LANES: usize = 4;

/// How much shorter two keyed rows must be than their packed rows for
/// [`row_class`] to intersect them keyed: keyed when `KEYED_GAIN × (keyed
/// lengths) ≤ packed lengths`.  A keyed step does a popcount on top of a
/// merge step's compare, and the packed side of a similar-size pair runs the
/// [`SIMD_LANES`]-wide kernel, so halving the entries is what it takes to win.
pub const KEYED_GAIN: usize = 2;

/// Rows holding fewer cells than this between them stay packed whatever
/// their keyed lengths.  Below it both packed rows fit in a cache line or
/// two and the tiny or SIMD kernel answers in about 20 ns, while the keyed
/// rows live in vectors of their own: fetching them costs more than the
/// shorter merge saves (measured on 9-cell rows, where keyed was 5–10 %
/// slower per query and on 90-cell rows 1.7× faster).
pub const KEYED_MIN_CELLS: usize = 32;

/// Which kernel [`intersection_len`] routes a given pair of input lengths to.
///
/// Returned by [`dispatch_class`]; the mapping depends only on the two
/// lengths (and on whether the CPU has AVX2), never on the slice contents, so
/// callers can classify an intersection without re-running it.
/// [`row_class`] adds [`KernelClass::Keyed`] for rows held in both forms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelClass {
    /// Both sides ≤ [`TINY_LEN`] (or one side empty): branch-free all-pairs.
    Tiny,
    /// Size ratio ≥ [`GALLOP_SKEW`]: exponential search over the larger side.
    Gallop,
    /// Similar sizes on a CPU with AVX2: blockwise SIMD kernel.
    Simd,
    /// Similar sizes on a CPU without AVX2: scalar two-pointer merge.
    Merge,
    /// Both rows' keyed forms, [`keyed_overlap`]: chosen by [`row_class`],
    /// never by [`dispatch_class`].
    Keyed,
}

/// The kernel [`intersection_len`] will use for inputs of the given lengths.
///
/// Pure in the lengths and the process's CPU: `intersection_len(a, b)` runs
/// the kernel `dispatch_class(a.len(), b.len())` names, and the similar-size
/// regime names [`KernelClass::Simd`] exactly when AVX2 was detected at run
/// time — what the platform is can be observed, so nothing selects it.  One
/// side empty classifies as [`KernelClass::Tiny`] (the all-pairs loop over
/// zero pairs returns 0 immediately).
#[inline]
pub fn dispatch_class(a_len: usize, b_len: usize) -> KernelClass {
    let (min, max) = if a_len <= b_len { (a_len, b_len) } else { (b_len, a_len) };
    if min == 0 || max <= TINY_LEN {
        KernelClass::Tiny
    } else if min.saturating_mul(GALLOP_SKEW) <= max {
        KernelClass::Gallop
    } else if has_avx2() {
        KernelClass::Simd
    } else {
        KernelClass::Merge
    }
}

/// True when the CPU this process runs on has AVX2 — the cached run-time
/// probe (one relaxed load after the first call) every SIMD routing decision
/// of this module shares.
#[inline]
fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the CPU has the `popcnt` instruction ([`keyed_overlap`]'s
/// routing probe, cached like [`has_avx2`]'s).
#[inline]
fn has_popcnt() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The kernel for one pair of rows held in both forms, packed lengths
/// `packed`: [`KernelClass::Keyed`] when neither row is empty, together they
/// hold at least [`KEYED_MIN_CELLS`] cells, and the keyed lengths `keyed()`
/// are at most `1 / KEYED_GAIN` of the packed ones ([`KEYED_GAIN`]);
/// otherwise what [`dispatch_class`] picks for the packed rows.  `keyed` is
/// called only when the packed lengths leave the choice open, so a caller
/// whose keyed lengths live in memory of their own touches it only then.
/// Pure in the four lengths and the CPU, like [`dispatch_class`], so callers
/// account it without running it.
#[inline]
pub fn row_class(packed: (usize, usize), keyed: impl FnOnce() -> (usize, usize)) -> KernelClass {
    let (a, b) = packed;
    if a.min(b) > 0 && a + b >= KEYED_MIN_CELLS {
        let (keyed_a, keyed_b) = keyed();
        if KEYED_GAIN * (keyed_a + keyed_b) <= a + b {
            return KernelClass::Keyed;
        }
    }
    dispatch_class(a, b)
}

/// One cell row in keyed form (see the [module docs](self)): ascending unique
/// keys `(time >> 6) << 38 | unit` and, parallel to them, the masks of the 64
/// time units under each key the row holds (bit `time & 63`; never 0).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KeyedRow<'a> {
    keys: &'a [u64],
    masks: &'a [u64],
}

impl<'a> KeyedRow<'a> {
    /// The row with these keys and masks (equal lengths, keys ascending).
    #[inline]
    pub fn new(keys: &'a [u64], masks: &'a [u64]) -> Self {
        debug_assert_eq!(keys.len(), masks.len(), "a mask per key");
        KeyedRow { keys, masks }
    }

    /// Number of keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the row holds no cell.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// The time bits a keyed key drops into its mask: the low six of the
/// packed cell's time half.
const WORD_BITS: u64 = 63 << 32;

/// Appends the keyed form of one packed row (ascending, deduplicated
/// [`StCell::packed`](crate::cell::StCell::packed) values) to `keys` /
/// `masks`, which must be of equal length, and returns how many keys it
/// appended.
///
/// A cell's key is the cell with its time's low six bits cleared and its
/// mask bit is those six bits, so the keys ascend word by word like the
/// packed cells and one pass does it: a word's cells are adjacent in the
/// packed row, its keys (one per unit seen in those 64 time units) are
/// appended as they first appear, and sorted when the word ends.
pub fn push_keyed(packed: &[u64], keys: &mut Vec<u64>, masks: &mut Vec<u64>) -> usize {
    debug_assert!(is_sorted_dedup(packed), "a packed row is sorted and deduplicated");
    debug_assert_eq!(keys.len(), masks.len(), "a mask per key");
    let start = keys.len();
    // The current word's keys are `keys[word..]`, in order of appearance;
    // `last` is the key the previous cell went to, which a trace that stays
    // in one unit hits again.
    let (mut word, mut last) = (start, start);
    for &cell in packed {
        let (key, bit) = (cell & !WORD_BITS, 1u64 << ((cell & WORD_BITS) >> 32));
        if keys.get(last) != Some(&key) {
            if keys.len() > word && (keys[word] ^ key) >> 32 != 0 {
                sort_word(&mut keys[word..], &mut masks[word..]);
                word = keys.len();
            }
            last = match keys[word..].iter().position(|&k| k == key) {
                Some(at) => word + at,
                None => {
                    keys.push(key);
                    masks.push(0);
                    keys.len() - 1
                }
            };
        }
        masks[last] |= bit;
    }
    sort_word(&mut keys[word..], &mut masks[word..]);
    keys.len() - start
}

/// Sorts one word's keys — usually a handful, one per unit — carrying their
/// masks along: by insertion, or through a sorted copy when there are many.
fn sort_word(keys: &mut [u64], masks: &mut [u64]) {
    if keys.len() > 16 {
        let mut pairs: Vec<(u64, u64)> = keys.iter().copied().zip(masks.iter().copied()).collect();
        pairs.sort_unstable();
        for ((key, mask), (k, m)) in keys.iter_mut().zip(masks.iter_mut()).zip(pairs) {
            (*key, *mask) = (k, m);
        }
        return;
    }
    for i in 1..keys.len() {
        let (key, mask) = (keys[i], masks[i]);
        let mut j = i;
        while j > 0 && keys[j - 1] > key {
            keys[j] = keys[j - 1];
            masks[j] = masks[j - 1];
            j -= 1;
        }
        keys[j] = key;
        masks[j] = mask;
    }
}

/// Appends the packed row a keyed row stands for to `out` and returns how
/// many cells it appended: the inverse of [`push_keyed`], exactly.
///
/// A word's keys go unit by unit while packed cells go time by time, so a
/// word held by one key is its mask's bits in order, and a word held by
/// several is walked bit by bit over the union of their masks, each bit
/// emitting the keys (units, ascending) whose mask has it.
pub fn push_packed(row: KeyedRow<'_>, out: &mut Vec<u64>) -> usize {
    debug_assert!(is_sorted_dedup(row.keys), "keyed row must be sorted and deduplicated");
    let start = out.len();
    let (keys, masks) = (row.keys, &row.masks[..row.keys.len()]);
    let mut first = 0;
    while first < keys.len() {
        let word = keys[first] >> 32;
        let end = first + keys[first..].iter().take_while(|&&key| key >> 32 == word).count();
        let mut bits = masks[first..end].iter().fold(0, |all, &mask| all | mask);
        while bits != 0 {
            let bit = u64::from(bits.trailing_zeros());
            bits &= bits - 1;
            for (&key, &mask) in keys[first..end].iter().zip(&masks[first..end]) {
                if mask >> bit & 1 == 1 {
                    out.push(key | bit << 32);
                }
            }
        }
        first = end;
    }
    out.len() - start
}

/// Appends the keyed form of the union of two rows given in keyed form —
/// their keys merged, the masks of a key both hold ORed — to `keys` /
/// `masks`, and returns how many keys it appended: what [`push_keyed`] of
/// the union of the packed rows appends, in the time of a merge over keys.
pub fn push_keyed_union(
    a: KeyedRow<'_>,
    b: KeyedRow<'_>,
    keys: &mut Vec<u64>,
    masks: &mut Vec<u64>,
) -> usize {
    debug_assert_eq!(keys.len(), masks.len(), "a mask per key");
    let start = keys.len();
    let (mut i, mut j) = (0, 0);
    while i < a.keys.len() && j < b.keys.len() {
        let (x, y) = (a.keys[i], b.keys[j]);
        keys.push(x.min(y));
        masks.push(if x <= y { a.masks[i] } else { 0 } | if y <= x { b.masks[j] } else { 0 });
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    keys.extend_from_slice(&a.keys[i..]);
    masks.extend_from_slice(&a.masks[i..]);
    keys.extend_from_slice(&b.keys[j..]);
    masks.extend_from_slice(&b.masks[j..]);
    keys.len() - start
}

/// `|A ∩ B|` of two rows in keyed form — the exact integer
/// [`intersection_len`] returns for the rows' packed forms.
///
/// On x86-64 with AVX2 this is [`intersection_len_simd`]'s block scheme over
/// the keys: the current [`SIMD_LANES`]-wide `a`-block of keys is compared
/// with the current `b`-block and its three lane rotations, each `a`-lane
/// picks up the mask of the `b`-lane it equals (at most one: keys are
/// unique), the picked masks are ANDed with the `a`-block's masks and
/// popcounted per lane, and the block with the smaller last key advances
/// (both on ties).  A shared key meets its partner in exactly one iteration,
/// as in the packed kernel, and the partial-block tail is finished by
/// [`keyed_overlap_merge`].  Elsewhere this *is* [`keyed_overlap_merge`].
pub fn keyed_overlap(a: KeyedRow<'_>, b: KeyedRow<'_>) -> usize {
    debug_assert!(is_sorted_dedup(a.keys), "keyed row `a` must be sorted and deduplicated");
    debug_assert!(is_sorted_dedup(b.keys), "keyed row `b` must be sorted and deduplicated");
    #[cfg(target_arch = "x86_64")]
    if has_avx2() && has_popcnt() {
        // SAFETY: AVX2 and `popcnt` support were just verified at runtime.
        return unsafe { x86::keyed_overlap_avx2(a, b) };
    }
    keyed_overlap_merge(a, b)
}

/// `|A ∩ B|` of two rows in keyed form — the scalar merge over the keys that
/// adds `popcount(mask_a & mask_b)` on every equal key: [`keyed_overlap`]'s
/// tail and its conformance oracle.
pub fn keyed_overlap_merge(a: KeyedRow<'_>, b: KeyedRow<'_>) -> usize {
    debug_assert!(is_sorted_dedup(a.keys), "keyed row `a` must be sorted and deduplicated");
    debug_assert!(is_sorted_dedup(b.keys), "keyed row `b` must be sorted and deduplicated");
    keyed_overlap_body(a, b)
}

/// The keyed merge itself, branch-free: both cursors advance by comparison
/// results and a non-matching pair adds a popcount of zero.  Inlined into
/// the AVX2 kernel, whose `popcnt` feature it then compiles with.
#[inline(always)]
fn keyed_overlap_body(a: KeyedRow<'_>, b: KeyedRow<'_>) -> usize {
    let (a_keys, b_keys) = (a.keys, b.keys);
    let (a_masks, b_masks) = (&a.masks[..a_keys.len()], &b.masks[..b_keys.len()]);
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    while i < a_keys.len() && j < b_keys.len() {
        let (x, y) = (a_keys[i], b_keys[j]);
        let equal = u64::from(x == y).wrapping_neg();
        count += (a_masks[i] & b_masks[j] & equal).count_ones() as usize;
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    count
}

/// True iff `s` is sorted ascending with no duplicates — the input contract
/// of every intersection kernel, checked via `debug_assert!` at the public
/// entry points.
#[inline]
fn is_sorted_dedup(s: &[u64]) -> bool {
    s.windows(2).all(|w| w[0] < w[1])
}

/// Branch-free all-pairs intersection for tiny inputs (both ≤ [`TINY_LEN`]).
///
/// At most 64 equality tests, each lowered to a flag-set + add with no
/// data-dependent branch; for these sizes the fixed overhead of any of the
/// dispatched kernels (pointer setup, probe bookkeeping, SIMD feature check)
/// exceeds the whole loop.
#[inline]
fn intersection_len_tiny(a: &[u64], b: &[u64]) -> usize {
    let mut count = 0usize;
    for &x in a {
        for &y in b {
            count += usize::from(x == y);
        }
    }
    count
}

/// Intersection size of two sorted, deduplicated slices — three-way-compare
/// two-pointer merge.
///
/// The readable formulation is also the fast one: LLVM lowers the match arms
/// to conditional moves, so the compiled loop carries no unpredictable branch.
/// This is the dispatcher's balanced-size scalar kernel and the conformance
/// oracle for the other kernels.
pub fn intersection_len_merge(a: &[u64], b: &[u64]) -> usize {
    debug_assert!(is_sorted_dedup(a), "kernel input `a` must be sorted and deduplicated");
    debug_assert!(is_sorted_dedup(b), "kernel input `b` must be sorted and deduplicated");
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Lower bound of `x` in `large[base..]` found by exponential probing followed
/// by a binary search over the bracketed window.
#[inline]
fn gallop_lower_bound(large: &[u64], base: usize, x: u64) -> usize {
    if base >= large.len() || large[base] >= x {
        return base;
    }
    // Invariant: `large[base + offset/2] < x` (for offset == 1 this is
    // `large[base] < x`, established above).
    let mut offset = 1usize;
    loop {
        let probe = base + offset;
        if probe >= large.len() || large[probe] >= x {
            break;
        }
        offset <<= 1;
    }
    let lo = base + (offset >> 1) + 1;
    let hi = (base + offset).min(large.len());
    lo + large[lo..hi].partition_point(|&v| v < x)
}

/// Intersection size of two sorted, deduplicated slices — galloping
/// (exponential-search) kernel for skewed sizes.
///
/// Iterates the smaller slice and locates each element in the larger one by
/// exponential probing from the previous match position, doing
/// `O(small · log(large / small))` comparisons instead of the merge's
/// `O(small + large)`.  Preferred when one set is at least [`GALLOP_SKEW`]
/// times the other.
pub fn intersection_len_gallop(a: &[u64], b: &[u64]) -> usize {
    debug_assert!(is_sorted_dedup(a), "kernel input `a` must be sorted and deduplicated");
    debug_assert!(is_sorted_dedup(b), "kernel input `b` must be sorted and deduplicated");
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut base = 0usize;
    let mut count = 0usize;
    for &x in small {
        base = gallop_lower_bound(large, base, x);
        if base >= large.len() {
            break;
        }
        if large[base] == x {
            count += 1;
            base += 1;
        }
    }
    count
}

/// Intersection size of two sorted, deduplicated slices — explicit SIMD
/// blockwise kernel with runtime feature detection.
///
/// On x86-64 with AVX2 this compares [`SIMD_LANES`]-wide (4×`u64`) blocks of
/// the two inputs: the current `a`-block is tested against the current
/// `b`-block and its three lane rotations (so every lane pair is compared
/// exactly once), the per-lane hit mask is popcounted, and whichever block has
/// the smaller maximum advances (both on ties).  Because the inputs are
/// deduplicated, a common value lives in exactly one block on each side and
/// those two blocks are simultaneously current in exactly one iteration, so
/// each match is counted exactly once; any partial-block tail is finished by
/// the scalar merge.  Without AVX2 (and on other architectures) this function
/// *is* [`intersection_len_merge`] — so it is always safe to call by name and
/// always returns the exact count.
pub fn intersection_len_simd(a: &[u64], b: &[u64]) -> usize {
    debug_assert!(is_sorted_dedup(a), "kernel input `a` must be sorted and deduplicated");
    debug_assert!(is_sorted_dedup(b), "kernel input `b` must be sorted and deduplicated");
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { x86::intersection_len_avx2(a, b) };
    }
    intersection_len_merge(a, b)
}

/// Intersection size of two sorted, deduplicated slices, dispatching by input
/// shape: tiny inputs (both ≤ [`TINY_LEN`]) take a branch-free all-pairs
/// loop, size ratios ≥ [`GALLOP_SKEW`] take [`intersection_len_gallop`], and
/// the similar-size regime takes [`intersection_len_simd`] when the CPU has
/// AVX2 ([`intersection_len_merge`] otherwise).
///
/// The routing is exactly [`dispatch_class`] of the two lengths, and every
/// kernel returns the identical exact count, so the dispatch decision can
/// never change an answer.
#[inline]
pub fn intersection_len(a: &[u64], b: &[u64]) -> usize {
    debug_assert!(is_sorted_dedup(a), "kernel input `a` must be sorted and deduplicated");
    debug_assert!(is_sorted_dedup(b), "kernel input `b` must be sorted and deduplicated");
    match dispatch_class(a.len(), b.len()) {
        KernelClass::Tiny => intersection_len_tiny(a, b),
        KernelClass::Gallop => intersection_len_gallop(a, b),
        KernelClass::Simd => intersection_len_simd(a, b),
        KernelClass::Merge => intersection_len_merge(a, b),
        KernelClass::Keyed => unreachable!("dispatch_class routes packed rows only"),
    }
}

/// Element-wise minimum merge: `dst[i] = min(dst[i], src[i])` — scalar loop.
///
/// The loop is branch-free and autovectorizes; kept public as the conformance
/// oracle for [`merge_min`]'s AVX2 path.  The slices must have equal length (the
/// signature width).
#[inline]
pub fn merge_min_scalar(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len(), "signature widths must match");
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = (*d).min(s);
    }
}

/// Element-wise minimum merge: `dst[i] = min(dst[i], src[i])`.
///
/// This is the MinHash signature-merge primitive; the slices must have equal
/// length (the signature width).  Routed like [`intersection_len`]'s
/// similar-size regime: 4×`u64` AVX2 blocks when the CPU has them (unsigned
/// min emulated by sign-bit flip + signed compare + blend, since unsigned
/// 64-bit min is AVX-512-only, with a scalar tail), [`merge_min_scalar`]
/// otherwise.  Element-wise integer minimum is exact, so the two are
/// bit-identical by construction.
pub fn merge_min(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len(), "signature widths must match");
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { x86::merge_min_avx2(dst, src) };
        return;
    }
    merge_min_scalar(dst, src);
}

/// Index of the maximum element, breaking ties toward the lowest index.
///
/// Runs with the current maximum hoisted into a register (no re-read of
/// `values[best]` per iteration).  Returns 0 for an empty slice, matching the
/// routing convention for empty signatures.
#[inline]
pub fn argmax(values: &[u64]) -> usize {
    let Some((&first, rest)) = values.split_first() else { return 0 };
    let mut best = 0usize;
    let mut best_val = first;
    for (i, &v) in rest.iter().enumerate() {
        if v > best_val {
            best = i + 1;
            best_val = v;
        }
    }
    best
}

/// x86-64 intrinsic implementations of the SIMD kernels.
///
/// The functions are `#[target_feature]`-gated and only reached behind a
/// runtime `is_x86_feature_detected!("avx2")` check.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    const AVX_LANES: usize = super::SIMD_LANES; // 4 × u64 per __m256i

    /// Blockwise 4-lane intersection count.  See [`super::intersection_len_simd`]
    /// for the counting argument; the block-advance rule (`smaller max moves,
    /// both on ties`) guarantees the two blocks containing a common value are
    /// simultaneously current in exactly one iteration.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn intersection_len_avx2(a: &[u64], b: &[u64]) -> usize {
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        let na = a.len() & !(AVX_LANES - 1);
        let nb = b.len() & !(AVX_LANES - 1);
        while i < na && j < nb {
            // SAFETY: `i + AVX_LANES <= na <= a.len()` (and likewise for `b`),
            // and the loads are explicitly unaligned.
            let va = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let vb = _mm256_loadu_si256(b.as_ptr().add(j).cast());
            // Compare every a-lane against every b-lane: vb and its three
            // lane rotations cover all 16 pairs exactly once.
            let m0 = _mm256_cmpeq_epi64(va, vb);
            let m1 = _mm256_cmpeq_epi64(va, _mm256_permute4x64_epi64(vb, 0b00_11_10_01));
            let m2 = _mm256_cmpeq_epi64(va, _mm256_permute4x64_epi64(vb, 0b01_00_11_10));
            let m3 = _mm256_cmpeq_epi64(va, _mm256_permute4x64_epi64(vb, 0b10_01_00_11));
            let any = _mm256_or_si256(_mm256_or_si256(m0, m1), _mm256_or_si256(m2, m3));
            // One mask bit per a-lane; dedup means each lane matches at most
            // one b-lane, so the popcount is the exact pair count.
            count += (_mm256_movemask_pd(_mm256_castsi256_pd(any)) as u32).count_ones() as usize;
            let a_max = *a.get_unchecked(i + AVX_LANES - 1);
            let b_max = *b.get_unchecked(j + AVX_LANES - 1);
            i += if a_max <= b_max { AVX_LANES } else { 0 };
            j += if b_max <= a_max { AVX_LANES } else { 0 };
        }
        count + super::intersection_len_merge(&a[i..], &b[j..])
    }

    /// Blockwise 4-lane keyed overlap.  See [`super::keyed_overlap`] for the
    /// scheme; the block-advance rule and its counting argument are
    /// [`intersection_len_avx2`]'s.
    ///
    /// # Safety
    /// The CPU must support AVX2 and `popcnt`.
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn keyed_overlap_avx2(
        a: super::KeyedRow<'_>,
        b: super::KeyedRow<'_>,
    ) -> usize {
        let (a_keys, b_keys) = (a.keys, b.keys);
        let (a_masks, b_masks) = (&a.masks[..a_keys.len()], &b.masks[..b_keys.len()]);
        let (mut i, mut j) = (0usize, 0usize);
        let na = a_keys.len() & !(AVX_LANES - 1);
        let nb = b_keys.len() & !(AVX_LANES - 1);
        let mut counts = _mm256_setzero_si256();
        while i < na && j < nb {
            // SAFETY: `i + AVX_LANES <= na <= a_keys.len() == a_masks.len()`
            // (likewise for `b`) by the loop condition and the slicing above,
            // which covers every load and `get_unchecked` below; the loads
            // are explicitly unaligned.
            let ka = _mm256_loadu_si256(a_keys.as_ptr().add(i).cast());
            let kb = _mm256_loadu_si256(b_keys.as_ptr().add(j).cast());
            let e0 = _mm256_cmpeq_epi64(ka, kb);
            let e1 = _mm256_cmpeq_epi64(ka, _mm256_permute4x64_epi64(kb, 0b00_11_10_01));
            let e2 = _mm256_cmpeq_epi64(ka, _mm256_permute4x64_epi64(kb, 0b01_00_11_10));
            let e3 = _mm256_cmpeq_epi64(ka, _mm256_permute4x64_epi64(kb, 0b10_01_00_11));
            let any = _mm256_or_si256(_mm256_or_si256(e0, e1), _mm256_or_si256(e2, e3));
            if _mm256_testz_si256(any, any) == 0 {
                let ma = _mm256_loadu_si256(a_masks.as_ptr().add(i).cast());
                let mb = _mm256_loadu_si256(b_masks.as_ptr().add(j).cast());
                // Lane by lane, the mask of the `b`-lane whose key equals it.
                let m0 = _mm256_and_si256(e0, mb);
                let m1 = _mm256_and_si256(e1, _mm256_permute4x64_epi64(mb, 0b00_11_10_01));
                let m2 = _mm256_and_si256(e2, _mm256_permute4x64_epi64(mb, 0b01_00_11_10));
                let m3 = _mm256_and_si256(e3, _mm256_permute4x64_epi64(mb, 0b10_01_00_11));
                let picked = _mm256_or_si256(_mm256_or_si256(m0, m1), _mm256_or_si256(m2, m3));
                counts = _mm256_add_epi64(counts, popcount_lanes(_mm256_and_si256(ma, picked)));
            }
            let a_max = *a_keys.get_unchecked(i + AVX_LANES - 1);
            let b_max = *b_keys.get_unchecked(j + AVX_LANES - 1);
            i += if a_max <= b_max { AVX_LANES } else { 0 };
            j += if b_max <= a_max { AVX_LANES } else { 0 };
        }
        let mut lanes = [0u64; AVX_LANES];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), counts);
        let a_tail = super::KeyedRow::new(&a_keys[i..], &a_masks[i..]);
        let b_tail = super::KeyedRow::new(&b_keys[j..], &b_masks[j..]);
        lanes.iter().sum::<u64>() as usize + super::keyed_overlap_body(a_tail, b_tail)
    }

    /// Per-lane popcount of four `u64`s: nibble counts by table lookup,
    /// summed per lane by `sad_epu8` (AVX2 has no 64-bit popcount).
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcount_lanes(v: __m256i) -> __m256i {
        let table = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let lo = _mm256_shuffle_epi8(table, _mm256_and_si256(v, low));
        let hi = _mm256_shuffle_epi8(table, _mm256_and_si256(_mm256_srli_epi16(v, 4), low));
        _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256())
    }

    /// 4-lane element-wise unsigned minimum into `dst`.  Unsigned 64-bit min
    /// has no AVX2 instruction; flipping the sign bit maps unsigned order onto
    /// signed order, so `cmpgt_epi64` + `blendv` selects the unsigned min.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn merge_min_avx2(dst: &mut [u64], src: &[u64]) {
        let n = dst.len().min(src.len());
        let blocks = n & !(AVX_LANES - 1);
        let sign = _mm256_set1_epi64x(i64::MIN);
        let mut i = 0usize;
        while i < blocks {
            // SAFETY: `i + AVX_LANES <= blocks <= dst.len().min(src.len())`.
            let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(d, sign), _mm256_xor_si256(s, sign));
            let min = _mm256_blendv_epi8(d, s, gt);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), min);
            i += AVX_LANES;
        }
        for k in i..n {
            let s = src[k];
            if s < dst[k] {
                dst[k] = s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kernels(a: &[u64], b: &[u64]) -> Vec<usize> {
        vec![
            intersection_len_merge(a, b),
            intersection_len_gallop(a, b),
            intersection_len_simd(a, b),
            intersection_len(a, b),
        ]
    }

    fn assert_agree(a: &[u64], b: &[u64], expect: usize) {
        for (k, got) in all_kernels(a, b).into_iter().enumerate() {
            assert_eq!(got, expect, "kernel {k} disagrees on {a:?} ∩ {b:?}");
        }
        // Symmetry.
        for (k, got) in all_kernels(b, a).into_iter().enumerate() {
            assert_eq!(got, expect, "kernel {k} disagrees on swapped {b:?} ∩ {a:?}");
        }
    }

    #[test]
    fn empty_and_disjoint() {
        assert_agree(&[], &[], 0);
        assert_agree(&[], &[1, 2, 3], 0);
        assert_agree(&[1, 3, 5], &[2, 4, 6], 0);
    }

    #[test]
    fn identical_and_subset() {
        assert_agree(&[1, 2, 3], &[1, 2, 3], 3);
        assert_agree(&[2], &[1, 2, 3], 1);
        assert_agree(&[1, 3], &[0, 1, 2, 3, 4], 2);
    }

    #[test]
    fn skewed_sizes_hit_the_gallop_path() {
        let small: Vec<u64> = vec![7, 100, 901];
        let large: Vec<u64> = (0..1000).collect();
        assert!(small.len() * GALLOP_SKEW <= large.len());
        assert_agree(&small, &large, 3);
        // Elements past the end of the large set.
        assert_agree(&[500, 5000], &large, 1);
        // First element before the start.
        let shifted: Vec<u64> = (10..1000).collect();
        assert_agree(&[0, 10, 999, 5000], &shifted, 2);
    }

    #[test]
    fn interleaved_runs() {
        let a: Vec<u64> = (0..100).map(|i| i * 2).collect();
        let b: Vec<u64> = (0..100).map(|i| i * 3).collect();
        let expect = a.iter().filter(|x| b.contains(x)).count();
        assert_agree(&a, &b, expect);
    }

    #[test]
    fn simd_lane_width_boundaries() {
        // Lengths straddling the 4-lane AVX2 block: partial blocks must be
        // finished exactly by the scalar tail.
        for la in 0..=10usize {
            for lb in 0..=10usize {
                let a: Vec<u64> = (0..la as u64).map(|i| i * 3).collect();
                let b: Vec<u64> = (0..lb as u64).map(|i| i * 2 + 1).collect();
                let expect = a.iter().filter(|x| b.contains(x)).count();
                assert_agree(&a, &b, expect);
            }
        }
    }

    #[test]
    fn tiny_inputs_route_to_the_all_pairs_loop() {
        assert_eq!(dispatch_class(0, 0), KernelClass::Tiny);
        assert_eq!(dispatch_class(0, 4096), KernelClass::Tiny);
        assert_eq!(dispatch_class(TINY_LEN, TINY_LEN), KernelClass::Tiny);
        assert_eq!(dispatch_class(1, TINY_LEN), KernelClass::Tiny);
        // One side past TINY_LEN leaves the tiny regime.
        assert_eq!(dispatch_class(1, TINY_LEN + 1), KernelClass::Gallop);
        let similar = dispatch_class(TINY_LEN + 1, TINY_LEN + 1);
        assert_eq!(similar, if has_avx2() { KernelClass::Simd } else { KernelClass::Merge });
        assert_eq!(dispatch_class(64, 64 * GALLOP_SKEW), KernelClass::Gallop);
    }

    #[test]
    fn dispatch_class_matches_the_documented_ratio_rule() {
        for a in 0..64usize {
            for b in 0..64usize {
                let class = dispatch_class(a, b);
                assert_eq!(class, dispatch_class(b, a), "dispatch must be symmetric");
                let (min, max) = (a.min(b), a.max(b));
                if min == 0 || max <= TINY_LEN {
                    assert_eq!(class, KernelClass::Tiny);
                } else if min * GALLOP_SKEW <= max {
                    assert_eq!(class, KernelClass::Gallop);
                } else {
                    assert_ne!(class, KernelClass::Tiny);
                    assert_ne!(class, KernelClass::Gallop);
                }
            }
        }
    }

    #[test]
    fn merge_min_is_elementwise() {
        let mut dst = vec![5, 1, 7, u64::MAX];
        merge_min(&mut dst, &[3, 2, 7, 0]);
        assert_eq!(dst, vec![3, 1, 7, 0]);
    }

    #[test]
    fn merge_min_simd_matches_scalar_across_widths() {
        for width in 0..=67usize {
            let mut scalar: Vec<u64> =
                (0..width as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
            let src: Vec<u64> =
                (0..width as u64).map(|i| (!i).wrapping_mul(0xBF58_476D_1CE4_E5B9)).collect();
            let mut simd = scalar.clone();
            merge_min_scalar(&mut scalar, &src);
            merge_min(&mut simd, &src);
            assert_eq!(simd, scalar, "merge_min diverged at width {width}");
        }
    }

    #[test]
    fn merge_min_simd_handles_sign_bit_values() {
        // The AVX2 path emulates unsigned min via a sign-bit flip; values on
        // both sides of i64::MIN exercise that mapping.
        let mut dst = vec![u64::MAX, 1 << 63, (1 << 63) - 1, 0, u64::MAX - 1, 1 << 63, 3, 9];
        let src = vec![1 << 63, u64::MAX, 1 << 63, u64::MAX, u64::MAX, (1 << 63) - 1, 9, 3];
        let mut expect = dst.clone();
        merge_min_scalar(&mut expect, &src);
        merge_min(&mut dst, &src);
        assert_eq!(dst, expect);
    }

    #[test]
    fn argmax_breaks_ties_toward_lowest_index() {
        assert_eq!(argmax(&[]), 0);
        assert_eq!(argmax(&[9]), 0);
        assert_eq!(argmax(&[1, 9, 9, 3]), 1);
        assert_eq!(argmax(&[9, 9, 9]), 0);
        assert_eq!(argmax(&[1, 2, 9]), 2);
        assert_eq!(argmax(&[u64::MAX, u64::MAX]), 0);
    }
}
