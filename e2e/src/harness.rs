//! The measuring kit every workload shares: a closed-loop runner, nearest-rank
//! percentiles with the "ten samples beyond" rule, quiet latencies from an
//! op's repeats, the five-slice noise floor, a span recorder with self times,
//! a counting allocator, and the one emitter every number leaves through.
//!
//! Nothing here knows about the index; [`crate::workloads`] and
//! [`crate::layers`] do.

use crate::json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Clock and the closed loop
// ---------------------------------------------------------------------------

/// The run's monotonic clock; every sample and span is in nanoseconds since
/// its creation.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// Starts the clock.
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    /// Nanoseconds since the clock started.
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One timed call: `[start_ns, end_ns)` on the run's [`Clock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// When the call was issued.
    pub start_ns: u64,
    /// When it returned.
    pub end_ns: u64,
}

impl Sample {
    /// The call's duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Drives `ops` calls from **one client, closed loop**: call `i + 1` is issued
/// only after call `i` returned and `after` finished its bookkeeping.
///
/// Only `call` is timed; `after` receives the sample and the call's result
/// and does whatever must stay out of the latency (oracle checks, counter
/// sums, layer replays).  The loop stops early once `guard` has elapsed since
/// its first call — a stalled machine must not run a fixed op count into the
/// driver's time limit — so fewer than `ops` samples coming back means the
/// phase was cut short.
pub fn closed_loop<R>(
    clock: &Clock,
    ops: usize,
    guard: Duration,
    mut call: impl FnMut(usize) -> R,
    mut after: impl FnMut(usize, Sample, R),
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(ops);
    let guard_ns = guard.as_nanos() as u64;
    let phase_start = clock.now_ns();
    for i in 0..ops {
        let start_ns = clock.now_ns();
        if start_ns - phase_start > guard_ns {
            break;
        }
        let result = call(i);
        let sample = Sample { start_ns, end_ns: clock.now_ns() };
        samples.push(sample);
        after(i, sample, result);
    }
    samples
}

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// Percentile rungs a latency tail may be reported at.
pub const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const SAMPLES_BEYOND: usize = 10;

/// The nearest-rank percentile of ascending `sorted`: the smallest value with
/// at least `pct` percent of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest rung of [`TAIL_LADDER`] that still has at least
/// [`SAMPLES_BEYOND`] of `n` samples beyond it; the median when none has.
pub fn supported_tail(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&pct| n >= rank(n.max(1), pct) + SAMPLES_BEYOND)
        .unwrap_or(TAIL_LADDER[0])
}

/// One latency population, sorted once; every percentile reads from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    sorted: Vec<f64>,
}

impl Latency {
    /// The durations of `samples`, converted from nanoseconds by `per_unit`
    /// (1e3 for µs, 1e6 for ms).  `None` without samples.
    pub fn of(samples: &[Sample], per_unit: f64) -> Option<Latency> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.iter().map(|s| s.ns() as f64 / per_unit).collect();
        sorted.sort_by(f64::total_cmp);
        Some(Latency { sorted })
    }

    /// Number of samples.
    pub fn samples(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank median.
    pub fn p50(&self) -> f64 {
        nearest_rank(&self.sorted, 50.0)
    }

    /// The rung [`supported_tail`] picks for this sample count.
    pub fn tail_pct(&self) -> f64 {
        supported_tail(self.sorted.len())
    }

    /// Nearest-rank value at that rung.
    pub fn tail(&self) -> f64 {
        nearest_rank(&self.sorted, self.tail_pct())
    }

    /// The value at `pct`, if the sample count supports that rung.
    pub fn at(&self, pct: f64) -> Option<f64> {
        (self.tail_pct() >= pct).then(|| nearest_rank(&self.sorted, pct))
    }
}

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method) — the figures the driver's acceptance check uses, so `bench-diff`
/// reports the same spread the driver sees.
///
/// # Panics
/// Panics with fewer than two values (Python raises there too).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

// ---------------------------------------------------------------------------
// Repeats: what an op costs when the neighbours are quiet
// ---------------------------------------------------------------------------

/// One latency per distinct op: the fastest of the op's identical repeats.
///
/// The sandbox is a few cores of a shared host.  A 66 µs query repeated
/// 2 500 times in 10 s reads 55 µs while the neighbours are idle and 61–63 µs
/// while they are not; which of the two a run's *median* lands on depends on
/// how much of that run they were busy — anything from a tenth to all of it —
/// and whole minutes run 1.3–1.5× slower.  Interference only ever *adds*
/// time, so what an op costs is read off its fastest repeat: that holds as
/// long as one repeat of each op ran undisturbed, and over three runs of the
/// example it moved 0.2 % where the median moved 3 %.  The gated timings are
/// built from these **quiet latencies**; the same figures over all repeats,
/// disturbed or not, stay beside them in the per-layer list.
#[derive(Debug, Clone, PartialEq)]
pub struct Quiet {
    /// Quiet latency of each distinct op that ran at all, nanoseconds.
    per_op_ns: Vec<f64>,
    /// Median over all repeats of `latency ÷ its op's quiet latency`, minus 1.
    excess: f64,
}

impl Quiet {
    /// Groups `samples` by the distinct op each repeats (`op_of(i)` for the
    /// `i`-th sample).  `None` without samples.
    pub fn of(samples: &[Sample], op_of: impl Fn(usize) -> usize) -> Option<Quiet> {
        let mut fastest: BTreeMap<usize, f64> = BTreeMap::new();
        for (i, sample) in samples.iter().enumerate() {
            let ns = (sample.ns() as f64).max(1.0);
            fastest.entry(op_of(i)).and_modify(|best| *best = best.min(ns)).or_insert(ns);
        }
        let ratios: Vec<f64> =
            samples.iter().enumerate().map(|(i, s)| s.ns() as f64 / fastest[&op_of(i)]).collect();
        (!samples.is_empty()).then(|| Quiet {
            per_op_ns: fastest.into_values().collect(),
            excess: median(&ratios) - 1.0,
        })
    }

    /// Distinct ops.
    pub fn ops(&self) -> usize {
        self.per_op_ns.len()
    }

    /// Median over the distinct ops of their quiet latency, nanoseconds ÷ `per_unit`.
    pub fn p50(&self, per_unit: f64) -> f64 {
        median(&self.per_op_ns) / per_unit
    }

    /// Seconds one pass over the distinct ops takes at their quiet latencies.
    pub fn pass_s(&self) -> f64 {
        self.per_op_ns.iter().sum::<f64>() / 1e9
    }

    /// How much slower than its op's quiet latency the median repeat ran
    /// (0.07 = 7 %): the interference this run saw.
    pub fn excess(&self) -> f64 {
        self.excess
    }
}

// ---------------------------------------------------------------------------
// Throughput and the noise floor
// ---------------------------------------------------------------------------

/// Number of slices the noise floor is taken over.
pub const NOISE_SLICES: usize = 5;

/// Throughput of a measured phase over all its ops, disturbed or not, and its
/// own noise floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// All work ÷ wall of the whole phase (first issue to last return), in
    /// work units per second.
    pub overall_per_s: f64,
    /// (max − min) ÷ median of the slice rates.
    pub noise_spread: f64,
    /// Slices used (fewer than [`NOISE_SLICES`] only below that many samples).
    pub slices: usize,
}

impl Throughput {
    /// Cuts the phase into [`NOISE_SLICES`] equal consecutive slices (a
    /// remainder goes to the last) and rates each as `work_per_sample` × its
    /// samples ÷ its wall, first issue to last return — so bookkeeping between
    /// calls counts against throughput exactly as a caller would see it.
    /// `None` without samples.
    pub fn of(samples: &[Sample], work_per_sample: f64) -> Option<Throughput> {
        if samples.is_empty() {
            return None;
        }
        let rate = |part: &[Sample]| {
            let wall_ns = part[part.len() - 1].end_ns - part[0].start_ns;
            work_per_sample * part.len() as f64 / (wall_ns.max(1) as f64 / 1e9)
        };
        let slices = NOISE_SLICES.min(samples.len());
        let width = samples.len() / slices;
        let rates: Vec<f64> = (0..slices)
            .map(|i| {
                let end = if i + 1 == slices { samples.len() } else { (i + 1) * width };
                rate(&samples[i * width..end])
            })
            .collect();
        let (min, max) =
            rates.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
        Some(Throughput {
            overall_per_s: rate(samples),
            noise_spread: (max - min) / median(&rates),
            slices,
        })
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Identifier of a recorded span (its index in [`SpanRecorder::spans`]).
pub type SpanId = u32;

/// One recorded interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// The span that caused this one; `None` for an op's root span.
    pub parent: Option<SpanId>,
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
    /// Layer-qualified name, e.g. `plan.explain`.
    pub name: &'static str,
    /// Start, nanoseconds on the run's clock.
    pub start_ns: u64,
    /// End, nanoseconds on the run's clock.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times (duration minus what child spans cover).
    pub self_ns: u64,
}

/// Keeps spans in memory until the run ends; [`write_jsonl`] writes them out.
///
/// [`write_jsonl`]: SpanRecorder::write_jsonl
#[derive(Debug)]
pub struct SpanRecorder {
    clock: Clock,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<SpanId>,
    /// The op id the next root span takes.
    next_op: u64,
}

impl SpanRecorder {
    /// A recorder stamping spans on `clock`.
    pub fn new(clock: Clock) -> Self {
        SpanRecorder { clock, spans: Vec::new(), stack: Vec::new(), next_op: 0 }
    }

    /// Records the root span of a new op from an already-taken [`Sample`],
    /// so tracing an op adds no clock read to it.  Ops are numbered in the
    /// order their roots are recorded.
    pub fn root(&mut self, name: &'static str, sample: Sample) -> SpanId {
        let id = self.spans.len() as SpanId;
        let op = self.next_op;
        self.next_op += 1;
        self.spans.push(Span {
            id,
            parent: None,
            op,
            name,
            start_ns: sample.start_ns,
            end_ns: sample.end_ns,
        });
        id
    }

    /// Times `body` as a span caused by `parent` (or by the innermost open
    /// span when `parent` is `None` and one is open).  Spans opened inside
    /// `body` through the recorder it receives nest under this one.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        body: impl FnOnce(&mut SpanRecorder) -> R,
    ) -> R {
        let parent = parent.or(self.stack.last().copied());
        let op = parent.map_or(0, |p| self.spans[p as usize].op);
        let id = self.spans.len() as SpanId;
        let start_ns = self.clock.now_ns();
        self.spans.push(Span { id, parent, op, name, start_ns, end_ns: start_ns });
        self.stack.push(id);
        let result = body(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.clock.now_ns();
        result
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the spans named `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64).collect()
    }

    /// Every span's self time, by span id: its duration minus the part of its
    /// interval its direct children cover (children that ran after it ended —
    /// replays — cover none of it; overlapping children count once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        // One sweep over the children in start order per parent: a trace
        // holds tens of thousands of spans.
        let mut cursor: Vec<u64> = self.spans.iter().map(|s| s.start_ns).collect();
        let mut children: Vec<&Span> = self.spans.iter().filter(|s| s.parent.is_some()).collect();
        children.sort_by_key(|s| (s.parent, s.start_ns));
        for child in children {
            let p = child.parent.expect("filtered on parent") as usize;
            let parent = &self.spans[p];
            let start = child.start_ns.clamp(parent.start_ns, parent.end_ns).max(cursor[p]);
            let end = child.end_ns.min(parent.end_ns);
            if end > start {
                self_ns[p] -= end - start;
                cursor[p] = end;
            }
        }
        self_ns
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let self_ns = self.self_times_ns();
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for span in &self.spans {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.ns();
            entry.self_ns += self_ns[span.id as usize];
        }
        totals
    }

    /// How much of the replayed `root_name` ops the spans named in `parts`
    /// account for: their summed durations ÷ the summed root durations, over
    /// the ops that have a `replay` span, and how many ops that is.  `None`
    /// when no such op was replayed.
    pub fn coverage(&self, root_name: &str, parts: &[&str]) -> Option<(f64, u64)> {
        let replayed: std::collections::BTreeSet<u64> =
            self.spans.iter().filter(|s| s.name == "replay").map(|s| s.op).collect();
        let (mut root_ns, mut part_ns, mut ops) = (0u64, 0u64, 0u64);
        for span in self.spans.iter().filter(|s| replayed.contains(&s.op)) {
            if span.parent.is_none() && span.name == root_name {
                root_ns += span.ns();
                ops += 1;
            } else if parts.contains(&span.name)
                && self.spans[self.root_of(span.id) as usize].name == root_name
            {
                part_ns += span.ns();
            }
        }
        (root_ns > 0).then(|| (part_ns as f64 / root_ns as f64, ops))
    }

    fn root_of(&self, mut id: SpanId) -> SpanId {
        while let Some(parent) = self.spans[id as usize].parent {
            id = parent;
        }
        id
    }

    /// Writes one JSON object per span: `id`, `parent`, `op`, `name`,
    /// `start_ns`, `end_ns`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let line = Value::Obj(vec![
                ("id".into(), Value::Num(span.id as f64)),
                ("parent".into(), span.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                ("op".into(), Value::Num(span.op as f64)),
                ("name".into(), Value::Str(span.name.into())),
                ("start_ns".into(), Value::Num(span.start_ns as f64)),
                ("end_ns".into(), Value::Num(span.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.to_json())?;
        }
        out.flush()
    }
}

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

static HEAP_LIVE: AtomicIsize = AtomicIsize::new(0);
static HEAP_PEAK: AtomicIsize = AtomicIsize::new(0);

/// A thread settles its allocation balance with the shared counters once it
/// has drifted this far from zero.
///
/// Two atomic read-modify-writes per allocation on one shared cache line made
/// the two-thread fan-out of a `mem_syn` query 43 % slower than under the
/// system allocator alone — the measuring device would have been the largest
/// layer it measures.  Batched, the counters cost a thread-local add per call
/// and stay within `SETTLE_BYTES` × live threads of the truth.
const SETTLE_BYTES: isize = 8 * 1024;

/// One thread's unsettled balance; settled on drift and when the thread ends.
struct Pending(Cell<isize>);

impl Drop for Pending {
    fn drop(&mut self) {
        settle(self.0.replace(0));
    }
}

thread_local! {
    static PENDING: Pending = const { Pending(Cell::new(0)) };
}

fn settle(delta: isize) {
    let live = HEAP_LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if delta > 0 {
        HEAP_PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn account(delta: isize) {
    let due = PENDING.try_with(|pending| {
        let balance = pending.0.get() + delta;
        let due = balance.abs() >= SETTLE_BYTES;
        pending.0.set(if due { 0 } else { balance });
        due.then_some(balance)
    });
    match due {
        Ok(None) => {}
        Ok(Some(balance)) => settle(balance),
        // The thread is past its thread-local destructors: settle directly.
        Err(_) => settle(delta),
    }
}

/// The system allocator with a live-byte count and a high-water mark.
///
/// A binary installs it with `#[global_allocator]`; where it is not
/// installed [`heap_live`] and [`heap_peak`] read 0.  The counters are
/// statistics that publish no other data, hence `Relaxed`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// SAFETY: every method forwards the caller's layout and pointer unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the counters only
// observe sizes and never touch the memory.  The thread-local balance is a
// const-initialised `Cell`, so reaching it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` is valid for `alloc`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            account(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` is valid for `alloc_zeroed`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            account(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator hands out `System` blocks unchanged.
        unsafe { System.dealloc(ptr, layout) };
        account(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live block
        // of this allocator and `new_size` is valid for `layout.align()`.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            account(new_size as isize - layout.size() as isize);
        }
        new_ptr
    }
}

/// Bytes currently allocated through [`CountingAlloc`], exact for the
/// calling thread (its balance is settled first) and within
/// `SETTLE_BYTES` of every other live thread's.
pub fn heap_live() -> usize {
    if let Ok(balance) = PENDING.try_with(|pending| pending.0.replace(0)) {
        settle(balance);
    }
    HEAP_LIVE.load(Ordering::Relaxed).max(0) as usize
}

/// The most bytes ever live at once since the last [`heap_reset_peak`].
pub fn heap_peak() -> usize {
    let live = heap_live();
    (HEAP_PEAK.load(Ordering::Relaxed).max(0) as usize).max(live)
}

/// Restarts the high-water mark from the current live count.
pub fn heap_reset_peak() {
    HEAP_PEAK.store(heap_live() as isize, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// The emitter
// ---------------------------------------------------------------------------

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name: `[A-Za-z0-9_.-]`, at most 64 characters.
    pub name: String,
    /// Its unit, e.g. `us`, `1/s`, `count`.
    pub unit: String,
    /// The value as measured.
    pub value: f64,
    /// How many samples stand behind it (1 for a single reading).
    pub samples: u64,
}

/// True when `name` is one the benchmark may emit: starts with a letter or
/// digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The metrics of one run, in the order they were set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    /// Records a metric.  A malformed name, a name set twice or a non-finite
    /// value is refused: every one of them would corrupt a later comparison.
    pub fn set(&mut self, name: &str, unit: &str, value: f64, samples: u64) -> Result<(), String> {
        if !valid_metric_name(name) {
            return Err(format!("metric name {name:?} is outside [A-Za-z0-9_.-]"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        if self.get(name).is_some() {
            return Err(format!("metric {name} set twice"));
        }
        self.metrics.push(Metric { name: name.into(), unit: unit.into(), value, samples });
        Ok(())
    }

    /// The metric called `name`, if set.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Every metric, in the order set.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for `names`, in that order.
    /// A name that was never set is an error: a run that silently drops a
    /// metric would read as "no data", not as the bug it is.
    pub fn to_json(&self, names: &[&str], with_samples: bool) -> Result<Value, String> {
        let mut members = Vec::with_capacity(names.len());
        for &name in names {
            let metric = self.get(name).ok_or(format!("metric {name} was never measured"))?;
            let mut fields = vec![
                ("value".to_string(), Value::Num(metric.value)),
                ("unit".to_string(), Value::Str(metric.unit.clone())),
            ];
            if with_samples {
                fields.push(("samples".to_string(), Value::Num(metric.samples as f64)));
            }
            members.push((name.to_string(), Value::Obj(fields)));
        }
        Ok(Value::Obj(members))
    }
}

/// Where a record was measured: commit, core count, CPU features.
pub fn fingerprint() -> Value {
    let git_sha = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |sha| sha.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::Obj(vec![
        ("git_sha".into(), Value::Str(git_sha)),
        ("nproc".into(), Value::Num(nproc as f64)),
        ("cpu_features".into(), Value::Arr(cpu_features().into_iter().map(Value::Str).collect())),
    ])
}

fn cpu_features() -> Vec<String> {
    #[allow(unused_mut)]
    let mut found: Vec<String> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($feature:tt),*) => {
                $(if std::arch::is_x86_feature_detected!($feature) {
                    found.push($feature.to_string());
                })*
            };
        }
        probe!("sse2", "sse4.2", "avx", "avx2", "bmi2", "avx512f");
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(start_ns: u64, end_ns: u64) -> Sample {
        Sample { start_ns, end_ns }
    }

    #[test]
    fn closed_loop_issues_each_call_after_the_previous_bookkeeping() {
        let clock = Clock::start();
        let mut order = Vec::new();
        let log = std::cell::RefCell::new(&mut order);
        let samples = closed_loop(
            &clock,
            3,
            Duration::from_secs(60),
            |i| {
                log.borrow_mut().push(format!("call {i}"));
                i * 2
            },
            |i, sample, doubled| {
                assert_eq!(doubled, i * 2);
                assert!(sample.end_ns >= sample.start_ns);
                log.borrow_mut().push(format!("after {i}"));
            },
        );
        assert_eq!(samples.len(), 3);
        assert!(samples.windows(2).all(|w| w[1].start_ns >= w[0].end_ns));
        assert_eq!(order, ["call 0", "after 0", "call 1", "after 1", "call 2", "after 2"]);
    }

    #[test]
    fn closed_loop_stops_at_the_guard() {
        let clock = Clock::start();
        let samples = closed_loop(
            &clock,
            1_000,
            Duration::from_millis(5),
            |_| std::thread::sleep(Duration::from_millis(2)),
            |_, _, ()| {},
        );
        assert!(!samples.is_empty() && samples.len() < 1_000, "ran {} calls", samples.len());
    }

    #[test]
    fn nearest_rank_is_the_textbook_definition() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&values, 50.0), 50.0);
        assert_eq!(nearest_rank(&values, 95.0), 95.0);
        assert_eq!(nearest_rank(&values, 99.0), 99.0);
        assert_eq!(nearest_rank(&values, 100.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert_eq!(supported_tail(1_000), 99.0);
        assert_eq!(supported_tail(999), 95.0);
        // p95 of 200 is rank 190: ten beyond.
        assert_eq!(supported_tail(200), 95.0);
        assert_eq!(supported_tail(199), 90.0);
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(64), 75.0);
        assert_eq!(supported_tail(20), 50.0);
        assert_eq!(supported_tail(3), 50.0);
        assert_eq!(supported_tail(0), 50.0);
    }

    #[test]
    fn latency_reports_the_supported_rung_only() {
        let samples: Vec<Sample> = (1..=200).map(|i| sample(0, i * 1_000)).collect();
        let latency = Latency::of(&samples, 1e3).unwrap();
        assert_eq!(latency.samples(), 200);
        assert_eq!(latency.p50(), 100.0);
        assert_eq!(latency.tail_pct(), 95.0);
        assert_eq!(latency.tail(), 190.0);
        assert_eq!(latency.at(95.0), Some(190.0));
        assert_eq!(latency.at(99.0), None);
        assert!(Latency::of(&[], 1e3).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quiet_latency_is_each_ops_fastest_repeat() {
        // Three distinct ops cycled four times; a neighbour disturbs a few repeats.
        let ns = [100, 200, 900, 150, 200, 300, 100, 260, 330, 400, 200, 300];
        let samples: Vec<Sample> = ns.iter().map(|&ns| sample(1_000, 1_000 + ns)).collect();
        let quiet = Quiet::of(&samples, |i| i % 3).unwrap();
        // The fastest repeat of each op: 100, 200, 300 ns.
        assert_eq!(quiet.ops(), 3);
        assert_eq!(quiet.p50(1.0), 200.0);
        assert!((quiet.pass_s() - 600e-9).abs() < 1e-15);
        // More than half the repeats ran at their op's quiet latency.
        assert_eq!(quiet.excess(), 0.0);

        // Four repeats of one op at 2, 3, 5 and 8 ns: the median repeat ran
        // (3 + 5) / 2 / 2 = twice as long as the fastest.
        let samples = [2, 3, 5, 8].map(|ns| sample(0, ns));
        let quiet = Quiet::of(&samples, |_| 0).unwrap();
        assert_eq!((quiet.ops(), quiet.p50(1.0)), (1, 2.0));
        assert_eq!(quiet.excess(), 1.0);
        assert!(Quiet::of(&[], |i| i).is_none());
    }

    #[test]
    fn throughput_is_work_over_wall_and_noise_is_the_range_of_the_slices() {
        // Ten back-to-back calls: 1 ms each, except the last two at 2 ms.
        let mut samples = Vec::new();
        let mut at = 0;
        for i in 0..10 {
            let ns = if i >= 8 { 2_000_000 } else { 1_000_000 };
            samples.push(sample(at, at + ns));
            at += ns;
        }
        let throughput = Throughput::of(&samples, 1.0).unwrap();
        assert_eq!(throughput.slices, 5);
        assert!((throughput.overall_per_s - 10.0 / 0.012).abs() < 1e-6);
        // Slice rates: 1000 ×4 and 500 → (1000 − 500) / 1000.
        assert!((throughput.noise_spread - 0.5).abs() < 1e-9);
        // Fewer samples than slices: one slice per sample.
        assert_eq!(Throughput::of(&samples[..3], 1.0).unwrap().slices, 3);
        assert!(Throughput::of(&[], 1.0).is_none());
    }

    #[test]
    fn self_time_is_the_span_minus_what_children_cover() {
        let clock = Clock::start();
        let mut recorder = SpanRecorder::new(clock);
        let root = recorder.root("op.query", sample(100, 200));
        // The replay is stamped by the real clock: keep it clear of the
        // hand-made root interval.
        std::thread::sleep(Duration::from_millis(1));
        recorder.span("replay", Some(root), |r| {
            r.span("plan.explain", None, |_| std::thread::sleep(Duration::from_millis(2)));
            r.span("shard.merge", None, |_| std::thread::sleep(Duration::from_millis(1)));
        });
        let spans = recorder.spans().to_vec();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].parent, Some(1), "nested spans hang off the innermost open span");
        assert!(spans.iter().all(|s| s.op == 0), "spans of one op share its id");
        let next = recorder.root("op.query", sample(300, 400));
        assert_eq!(recorder.spans()[next as usize].op, 1, "each root starts a new op");
        // The replay ran after the op ended, so it covers none of the root.
        let self_ns = recorder.self_times_ns();
        assert_eq!(self_ns[root as usize], 100);
        let replay_self = self_ns[1];
        assert_eq!(replay_self, spans[1].ns() - spans[2].ns() - spans[3].ns());
        let totals = recorder.totals();
        assert_eq!(totals["op.query"], SpanTotals { count: 2, total_ns: 200, self_ns: 200 });
        // Only op 0 was replayed; its two layer spans over its 100 ns root.
        let (share, ops) = recorder.coverage("op.query", &["plan.explain", "shard.merge"]).unwrap();
        assert_eq!(ops, 1);
        assert_eq!(share, (spans[2].ns() + spans[3].ns()) as f64 / 100.0);
        assert_eq!(recorder.coverage("op.other", &["plan.explain"]), None);
        assert_eq!(totals["replay"].self_ns, replay_self);
        assert_eq!(totals["plan.explain"].self_ns, totals["plan.explain"].total_ns);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        let mut recorder = SpanRecorder::new(Clock::start());
        let root = recorder.root("op", sample(0, 100));
        for (start_ns, end_ns) in [(10, 40), (30, 60), (90, 150)] {
            recorder.spans.push(Span {
                id: 0,
                parent: Some(root),
                op: 0,
                name: "c",
                start_ns,
                end_ns,
            });
        }
        for (i, span) in recorder.spans.iter_mut().enumerate() {
            span.id = i as SpanId;
        }
        // Cover: [10, 60) and [90, 100) of [0, 100).
        assert_eq!(recorder.self_times_ns()[root as usize], 40);
        assert_eq!(recorder.totals()["op"].self_ns, 40);
    }

    #[test]
    fn spans_are_written_as_parent_linked_jsonl() {
        let mut recorder = SpanRecorder::new(Clock::start());
        recorder.root("op.warmup", sample(0, 1));
        let root = recorder.root("op.query", sample(5, 9));
        recorder.span("plan.explain", Some(root), |_| {});
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("harness-test-spans-{}.jsonl", std::process::id()));
        recorder.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<Value> = text.lines().map(|l| crate::json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1].get("parent"), Some(&Value::Null));
        assert_eq!(lines[1].get("end_ns").unwrap().as_f64(), Some(9.0));
        assert_eq!(lines[2].get("parent").unwrap().as_f64(), Some(1.0));
        assert_eq!(lines[2].get("op").unwrap().as_f64(), Some(1.0));
        assert_eq!(lines[2].get("name").unwrap().as_str(), Some("plan.explain"));
    }

    #[test]
    fn counting_allocator_tracks_live_and_peak() {
        // Driven directly: the test binary keeps the system allocator.
        let alloc = CountingAlloc;
        let layout = Layout::from_size_align(4096, 8).unwrap();
        let before = heap_live();
        // SAFETY: `layout` has non-zero size; the block is freed below with
        // the layout it was (re)allocated with and never used in between.
        unsafe {
            let ptr = alloc.alloc(layout);
            assert!(!ptr.is_null());
            assert_eq!(heap_live(), before + 4096);
            assert!(heap_peak() >= before + 4096);
            let ptr = alloc.realloc(ptr, layout, 8192);
            assert!(!ptr.is_null());
            assert_eq!(heap_live(), before + 8192);
            alloc.dealloc(ptr, Layout::from_size_align(8192, 8).unwrap());
        }
        assert_eq!(heap_live(), before);
        assert!(heap_peak() >= before + 8192);
        heap_reset_peak();
        assert_eq!(heap_peak(), heap_live());
    }

    #[test]
    fn emitter_refuses_bad_names_duplicates_and_non_finite_values() {
        let mut report = Report::default();
        report.set("query_p50_us", "us", 12.5, 100).unwrap();
        report.set("pool.hit-rate", "share", 0.5, 1).unwrap();
        assert!(report.set("query p50", "us", 1.0, 1).is_err());
        assert!(report.set("latency(ms)", "ms", 1.0, 1).is_err());
        assert!(report.set(".hidden", "ms", 1.0, 1).is_err());
        assert!(report.set(&"x".repeat(65), "ms", 1.0, 1).is_err());
        assert!(report.set("query_p50_us", "us", 1.0, 1).is_err());
        assert!(report.set("nan", "us", f64::NAN, 1).is_err());
        assert_eq!(report.metrics().len(), 2);

        let json = report.to_json(&["pool.hit-rate", "query_p50_us"], false).unwrap();
        assert_eq!(
            json.to_json(),
            r#"{"pool.hit-rate": {"value": 0.5, "unit": "share"}, "query_p50_us": {"value": 12.5, "unit": "us"}}"#
        );
        let with_samples = report.to_json(&["query_p50_us"], true).unwrap();
        assert_eq!(
            with_samples.get("query_p50_us").unwrap().get("samples").unwrap().as_f64(),
            Some(100.0)
        );
        assert!(report.to_json(&["missing"], false).is_err());
    }

    #[test]
    fn fingerprint_names_the_machine() {
        let fp = fingerprint();
        assert!(fp.get("git_sha").unwrap().as_str().is_some());
        assert!(fp.get("nproc").unwrap().as_f64().unwrap() >= 1.0);
        assert!(fp.get("cpu_features").unwrap().as_array().is_some());
    }
}
