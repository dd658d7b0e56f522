//! The keyed form of a cell row ([`trace_model::kernel::push_keyed`]) and its
//! overlap kernel against the packed merge oracle: on arbitrary sorted packed
//! sets the keyed rows are a lossless regrouping (every key ascending, every
//! mask non-zero, expanding them gives the packed row back, and
//! `push_packed` is that expansion, word edges and extremes included) and
//! `keyed_overlap` — the routed kernel and the scalar merge by name —
//! returns exactly `intersection_len_merge`, both ways round; uniting two
//! keyed rows gives the keyed form of the packed union; and `row_class`, the
//! rule choosing between keyed and packed, is the one its docs state.

use proptest::prelude::*;
use std::cell::Cell;
use trace_model::kernel::{
    dispatch_class, intersection_len_merge, keyed_overlap, keyed_overlap_merge, push_keyed,
    push_keyed_union, push_packed, row_class, KernelClass, KeyedRow,
};

/// Packs `(time, unit)` pairs into a sorted, deduplicated packed row.
fn packed(cells: impl IntoIterator<Item = (u32, u32)>) -> Vec<u64> {
    let mut row: Vec<u64> = cells.into_iter().map(|(t, u)| (t as u64) << 32 | u as u64).collect();
    row.sort_unstable();
    row.dedup();
    row
}

/// The keyed form of a packed row, appended after `prefix` stale keys to
/// check that conversion only ever appends.
fn keyed(row: &[u64], prefix: usize) -> (Vec<u64>, Vec<u64>) {
    let (mut keys, mut masks) = (vec![u64::MAX; prefix], vec![0; prefix]);
    let added = push_keyed(row, &mut keys, &mut masks);
    assert_eq!(keys.len(), prefix + added, "push_keyed reports what it appended");
    assert!(keys[..prefix].iter().all(|&k| k == u64::MAX), "earlier keys untouched");
    (keys.split_off(prefix), masks.split_off(prefix))
}

/// The packed row the keyed form stands for: each mask bit is a time unit of
/// the key's word (a word's keys go unit by unit, so the cells come out of
/// order within it).
fn expand(keys: &[u64], masks: &[u64]) -> Vec<u64> {
    let mut row = Vec::new();
    for (&key, &mask) in keys.iter().zip(masks) {
        for bit in (0..64).filter(|bit| mask >> bit & 1 == 1) {
            row.push(key | (bit as u64) << 32);
        }
    }
    row.sort_unstable();
    row
}

/// `push_keyed` then `push_packed` gives `row` back, appended after stale
/// cells that stay untouched.
fn assert_round_trips(row: &[u64]) {
    let (keys, masks) = keyed(row, 2);
    let mut out = vec![u64::MAX, 3];
    let added = push_packed(KeyedRow::new(&keys, &masks), &mut out);
    assert_eq!(added, row.len(), "push_packed reports what it appended");
    assert_eq!(&out[2..], row, "push_packed inverts push_keyed");
    assert_eq!(out[..2], [u64::MAX, 3], "earlier cells untouched");
}

/// Converts both rows, checks each conversion, and asserts every keyed
/// kernel equals the packed merge oracle, both ways round.
fn assert_keyed_agrees(a: &[u64], b: &[u64]) {
    let expect = intersection_len_merge(a, b);
    let ((a_keys, a_masks), (b_keys, b_masks)) = (keyed(a, 0), keyed(b, 3));
    for (row, keys, masks) in [(a, &a_keys, &a_masks), (b, &b_keys, &b_masks)] {
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys ascend: {keys:?}");
        assert!(masks.iter().all(|&m| m != 0), "no empty mask: {masks:?}");
        assert!(keys.len() <= row.len());
        assert_eq!(&expand(keys, masks), row, "the keyed form is the packed row");
        assert_round_trips(row);
    }
    let (ka, kb) = (KeyedRow::new(&a_keys, &a_masks), KeyedRow::new(&b_keys, &b_masks));
    assert_eq!(keyed_overlap(ka, kb), expect, "routed keyed vs merge on {a:?} ∩ {b:?}");
    assert_eq!(keyed_overlap(kb, ka), expect, "routed keyed symmetry");
    assert_eq!(keyed_overlap_merge(ka, kb), expect, "scalar keyed vs merge");
    assert_eq!(keyed_overlap_merge(kb, ka), expect, "scalar keyed symmetry");
    // The keyed union is the keyed form of the packed union.
    let union = packed(a.iter().chain(b).map(|&c| ((c >> 32) as u32, c as u32)));
    let (mut keys, mut masks) = (vec![7], vec![1]);
    let added = push_keyed_union(ka, kb, &mut keys, &mut masks);
    assert_eq!(added, keys.len() - 1);
    assert_eq!((&keys[1..], &masks[1..]), (&keyed(&union, 0).0[..], &keyed(&union, 0).1[..]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Dense cells: few units, a few words of time, so keys hold many cells
    /// and rows share keys with partly overlapping masks.
    #[test]
    fn keyed_overlap_equals_the_merge_on_dense_rows(
        a in proptest::collection::vec((0u32..320, 0u32..6), 0..240),
        b in proptest::collection::vec((0u32..320, 0u32..6), 0..240),
    ) {
        assert_keyed_agrees(&packed(a), &packed(b));
    }

    /// Sparse cells anywhere in the `u32 × u32` domain: mostly one cell per
    /// key, the regime the dispatcher leaves packed, still exact.
    #[test]
    fn keyed_overlap_equals_the_merge_on_sparse_rows(
        a in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..64),
        b in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..64),
    ) {
        assert_keyed_agrees(&packed(a), &packed(b));
    }

    /// Traces as stays: runs of consecutive time units at one unit, the
    /// clustering keyed rows exist for, across word boundaries.
    #[test]
    fn keyed_overlap_equals_the_merge_on_stays(
        a in proptest::collection::vec((0u32..2_000, 1u32..90, 0u32..12), 0..24),
        b in proptest::collection::vec((0u32..2_000, 1u32..90, 0u32..12), 0..24),
    ) {
        let stays = |stays: Vec<(u32, u32, u32)>| {
            packed(stays.into_iter().flat_map(|(start, len, unit)| {
                (start..start + len).map(move |t| (t, unit))
            }))
        };
        assert_keyed_agrees(&stays(a), &stays(b));
    }

    /// `push_packed` inverts `push_keyed` on arbitrary sorted rows: cells
    /// crowded into a few words and units, and cells anywhere in the
    /// `u32 × u32` domain.
    #[test]
    fn push_packed_round_trips_push_keyed(
        dense in proptest::collection::vec((0u32..260, 0u32..40), 0..400),
        sparse in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..48),
    ) {
        assert_round_trips(&packed(dense));
        assert_round_trips(&packed(sparse));
    }

    /// A keyed row has exactly one key per `(unit, word)` its cells touch —
    /// the length the dispatcher weighs against the packed one.
    #[test]
    fn keyed_rows_hold_one_key_per_unit_and_word(
        a in proptest::collection::vec((0u32..700, 0u32..9), 0..160),
    ) {
        let row = packed(a);
        let (keys, _) = keyed(&row, 0);
        let mut words: Vec<(u64, u64)> = row.iter().map(|&c| (c >> 38, c & 0xffff_ffff)).collect();
        words.sort_unstable();
        words.dedup();
        prop_assert_eq!(keys.len(), words.len());
    }
}

/// Shapes the generators are unlikely to hit exactly.
#[test]
fn keyed_overlap_handles_word_edges_and_extremes() {
    let max = u32::MAX;
    // Times on both sides of every word edge, at the first and last unit.
    let edges = packed([63, 64, 127, 128, 0, 1, max - 1, max].map(|t| (t, 5)));
    let edge_units = packed([63, 64, 127, 128].map(|t| (t, max)).into_iter().chain([(0, 0)]));
    // One unit filling a whole word, and the same word with a gap.
    let full_word = packed((64..128).map(|t| (t, 9)));
    let gapped_word = packed((64..128).filter(|t| t % 7 != 0).map(|t| (t, 9)));
    // Many units at one time, and across the next word edges.
    let one_time = packed((0..300).map(|u| (64, u * 3)));
    let crossing = packed((0..300).flat_map(|u| [(63, u), (64, u * 3), (130, u)]));
    // Units revisited out of order within one word.
    let zigzag = packed((0..128).map(|t| (t, (t * 7) % 5)));
    let empty: Vec<u64> = Vec::new();
    let rows =
        [&edges, &edge_units, &full_word, &gapped_word, &one_time, &crossing, &zigzag, &empty];
    for a in rows {
        for b in rows {
            assert_keyed_agrees(a, b);
        }
    }
    let (keys, masks) = keyed(&full_word, 0);
    assert_eq!((keys.len(), masks[0]), (1, u64::MAX), "one key, every bit");
    assert_eq!(keyed(&one_time, 0).0.len(), 300, "one key per unit");
    assert_eq!(keyed(&edges, 0).0.len(), 4, "words 0, 1, 2 and the last");
    assert_eq!(keyed(&zigzag, 0).0.len(), 10, "five units in each of two words");
}

/// `row_class` is the documented rule and nothing else: keyed exactly when
/// both rows hold cells, at least `KEYED_MIN_CELLS` between them, and keyed
/// forms at most `1 / KEYED_GAIN` as long — the packed classes otherwise —
/// and it asks for the keyed lengths only past the packed tests.
#[test]
fn row_class_is_the_documented_rule() {
    // The two thresholds, restated from `row_class`'s docs.
    const KEYED_GAIN: usize = 2;
    const KEYED_MIN_CELLS: usize = 32;
    for a in 0..48usize {
        for b in 0..48usize {
            for (ka, kb) in [(1, 1), (a / 2, b / 2), (a / 3, b / 3), (a, b)] {
                let asked = Cell::new(false);
                let class = row_class((a, b), || {
                    asked.set(true);
                    (ka, kb)
                });
                let open = a.min(b) > 0 && a + b >= KEYED_MIN_CELLS;
                assert_eq!(asked.get(), open, "{a}×{b}: keyed lengths asked for");
                if open && KEYED_GAIN * (ka + kb) <= a + b {
                    assert_eq!(class, KernelClass::Keyed, "{a}×{b} keyed {ka}×{kb}");
                } else {
                    assert_eq!(class, dispatch_class(a, b), "{a}×{b} keyed {ka}×{kb}");
                }
            }
        }
    }
}
