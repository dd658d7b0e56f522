#!/bin/sh
# Deleted paths stay deleted: each check greps for the names and shapes a
# removed path had, and a match fails it.  Run from the repository root;
# prints every match and the name of each failing check, and exits 1 if any
# check failed.
bad=0
fail() {
    echo "removed-names: check failed: $name"
    bad=1
}

# Sharded queries scan every admitted shard: no tree arm, shared bound,
# step quantum, size cutoff, floor rule or second schedule comes back.
name='No sharded tree arm'
grep -rnE 'TreeSearch|SharedBound|STEP_QUANTUM|SCAN_CUTOFF|top_level_bound_floor|fallback_reserve_ns|drive_budgeted|run_until' crates src tests examples && fail

# A latency budget is a deadline the drive enforces, not a price the
# planner pays: no plan-time budget pass, sampled-scan decision, cost
# constant or page estimate comes back.
name='One degrade rule'
grep -rnE 'ApproximateScan|apply_latency_budget|FALLBACK_NS_PER_DEGREE|SCAN_COST_CONSERVATISM|PageEstimate|shards_planned_approximate|fn miss_latency_us' crates src tests examples && fail

# Out of core pins nothing and reads every member: the pool has no pin
# protocol, and a paged session holds rows for every arena member, so
# no candidate is unreadable.
name='Out of core pins nothing and reads every member'
grep -rnE 'pin_trace|PinnedPages|pin_pages|pin_counted|fn unpin|set_evictable|resident_count|candidates_unreadable|discount_unreadable' crates src tests examples && fail

# LSH banding (§8.2) found 0–20 % of its own example's answers on SYN: no banded index comes back.
name='No LSH banded index'
grep -rnE 'BandedIndex|BandingConfig|approximate_top_k|fn banded|mod approximate|approximate::' crates src tests examples && fail

# A function that needs the allow wants a request value instead.
name='No too_many_arguments allows'
grep -rn 'allow(clippy::too_many_arguments)' crates src && fail

# One write path: `snapshot.rs` owns the maps and their mirrors, so
# nobody else refreshes one; and a batch is prepared once, so nothing
# after the commit point has a validation to `expect` on.
name='Mirrors are refreshed by their owner only'
grep -rnE 'rebuild_arena|recompute_synopsis|absorb_inserted_entity' crates/core/src --include='*.rs' | grep -v 'crates/core/src/snapshot.rs' && fail
name='No post-commit expect'
grep -rn 'after validation' crates/core/src && fail

# Exact planning and the scheduler have no off switch: a query sets only
# a latency budget, and tests reach the unseeded fan-out from data
# (sketch size 0), not a knob.
name='No exact-planning or scheduler knobs'
grep -rnE 'SchedulerConfig|step_quantum:|seed_threshold|skip_shards|PlannerConfig::disabled|scan_cutoff:' crates src tests examples && fail

# The tree search runs to completion inside the crate: no resumable
# executor, no external bound, no one-call paged session.
name='One run-to-completion tree search'
grep -rnE 'PrivateBound|trait Bound|is_exhausted|\.executor\(|fn executor|top_k_paged|ArenaSource::owning' crates src tests examples && fail

# The paged source consults the resident arena through three helpers
# (`CandidateArena::push_finer_rows` writes the session's pages,
# `CandidateArena::flat_scan` walks the level-1 and level-2 postings and positions,
# `CandidateArena::paged_overlaps` scores over level 1 and the row
# lengths); finer cells come from the pool, never from the arena's rows.
name='Paged source reads arena rows through its helpers'
grep -nE 'level_cells|degree_into|degree_at|scan_top_k' crates/core/src/paged.rs && fail

# One way to read a shard: in memory and out of core differ by the
# access's optional row pages, not by a trait with two implementations.
name='One access path'
grep -rnE 'ShardAccess|ArenaAccess|PagedAccess|PagedArenaSource|drain_source' crates src tests examples && fail

# Out of core, nothing re-reads records or re-discretises them into
# cells the snapshot already holds: the session's pages hold the rows.
name='No record visiting on the query path'
grep -rnE 'LevelRows|for_each_record' crates/core/src && fail

# Which kernel runs is decided by the CPU the process finds itself on,
# not by a cargo feature.
name='No simd cargo feature'
grep -rn 'feature = "simd"' crates src tests && fail

# Measurements live in `e2e/`; a contract a bench once asserted is a
# test.  No hand-rolled bench main and no stray artifact name returns.
name='No hand-rolled bench mains'
grep -rn 'harness = false' Cargo.toml crates stubs && fail
name='No bench artifacts outside e2e'
grep -rn 'BENCH[_]' .gitignore README.md docs crates src tests && fail

# A batch is its queries: no batch-wide plan, footprint group,
# pre-resolved sketch position or amortized planning share comes back.
name='No batch planning'
grep -rnE 'BatchPlan|BatchGroup|sketch_positions|amortized_planning' crates src tests examples && fail

# The candidate arena holds cells, not signatures, and every publish
# rebuilds it one way: no signature rows and no lone-insert splice come
# back (`-w`, so `build`'s unread `_sig_width` does not match).
name='One publish path, no arena signatures'
grep -rnwE 'signature_row|absorb_insert|absorb_into_synopsis|sig_width' crates src tests examples && fail

# Node rows are built when a tree search first asks for them, never by a
# publish: outside tests, the one `NodeArena::build` call in the core crate
# is the one `IndexSnapshot::node_arena` fills its cell with.
name='Publish builds no node rows'
for f in crates/core/src/*.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'NodeArena::build(' | grep -v '^[0-9]*: *//' |
        sed "s|^|$f:|"
done | grep -v '^crates/core/src/snapshot.rs:[0-9]*: *self\.node_arena\.get_or_init(|| NodeArena::build(&self\.tree))$' |
    grep . && fail

# A signature build hashes each cell once: a cell's row of `nh` values is
# its parent cell's row maxed with one fresh draw, not `nh` path walks.
name='One hash row per cell'
sed '/^#\[cfg(test)\]/,$d' crates/core/src/signature.rs | grep -n 'hasher\.hash(' && fail

# Every cell of a snapshot exists once, in its sequences: the candidate
# arena holds handles on them and reads packed rows in place, so it owns
# no packed-cell vector and copies no packed row.
name='One copy of the cells'
sed '/^#\[cfg(test)\]/,$d' crates/core/src/kernel.rs |
    grep -nE 'cells: Vec<u64>|extend_from_slice\(set\.packed_slice\(\)\)|from\.cells' && fail

# Options nobody set are constants: PathMax is the one hash rule (no mode,
# no min-over-children memo), the pool evicts by LRU-2 (custom replacers
# still plug into `BufferPool::with_replacer`), and a join always answers
# its probes on the rayon pool.
name='One value, one constant'
grep -rnE 'HasherMode|ReplacerPolicy|fn exhaustive\b|memo: RwLock|pub threads:|fn with_replacer\(self' crates src tests examples && fail

exit $bad
