//! Construct-level tracing and contention profiling.
//!
//! [`crate::stats::OpStats`] counts *how many* primitive operations a
//! machine performed; this module records *where a force spends its
//! time*: which construct each process was in, how long lock and
//! full/empty waits lasted, how spread-out barrier arrivals were, and how
//! a DOALL's trips distributed over the force.
//!
//! The measurement rule is the same as for `OpStats`: **relaxed atomics
//! only**, so tracing never perturbs the synchronization being measured.
//! Three consequences follow:
//!
//! * Event rings are strictly *single-writer*: each pid writes only its
//!   own ring, with relaxed stores and a relaxed head counter.  The
//!   reader ([`TraceSink::report`]) runs only at job quiescence (after
//!   the force joined, by thread join or by the pool's join count), where
//!   the join/handoff provides the happens-before edge the relaxed
//!   stores themselves do not.
//! * Histograms are arrays of relaxed `AtomicU64` buckets with
//!   power-of-two bounds: `record(v)` is one relaxed `fetch_add` per
//!   bucket/count/sum, and percentiles are answered from bucket upper
//!   bounds (so they are conservative by at most 2x).
//! * Nothing here blocks.  The only mutex is the named-lock intern table,
//!   taken once per *named* critical-section entry while tracing is on —
//!   never on the zero-tracing path.
//!
//! Tracing is opt-in via [`crate::fault::RunOptions::trace`]: without it
//! the thread-local trace slot is `None` and every hook is a single
//! `Option` test.  The sink lives on the
//! [`crate::fault::FaultPlane`] and is reset (or dropped) per job by
//! `FaultPlane::reset_for_job`, mirroring the fault plane's own per-job
//! semantics, so pooled sessions never leak one job's profile into the
//! next.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::fault::{self, Construct};
use crate::portable::{CachePadded, Mutex};

/// Number of distinct [`Construct`] variants (size of the per-construct
/// histogram tables).
const NCONSTRUCTS: usize = 13;

/// Number of power-of-two histogram buckets.  Bucket 0 holds the value 0;
/// bucket `i > 0` holds values in `[2^(i-1), 2^i)`, so 64 buckets cover
/// the full `u64` range of nanosecond durations.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Capacity of each per-pid event ring, in events.  When a ring wraps,
/// the oldest events are overwritten (and reported as dropped) —
/// histograms are never lossy.
const RING_CAPACITY: usize = 4096;

/// What a trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A construct marker became the innermost active marker.
    ConstructEnter,
    /// A construct marker was dropped.
    ConstructExit,
    /// A lock was acquired (`id` = named-lock id when known, else 0).
    LockAcquire,
    /// A lock acquisition did not succeed on the first attempt.
    LockContend,
    /// A barrier arrival was recorded (under `BARWIN`).
    BarrierArrive,
    /// A barrier departure was recorded (under `BARWOT`).
    BarrierRelease,
    /// A full/empty produce completed (cell became writable).
    Produce,
    /// A full/empty consume completed (cell became readable).
    Consume,
    /// The process published itself parked on the wait board.
    Park,
    /// The process left the parked state.
    Unpark,
    /// A work item was stolen from another process's deque (`id` = the
    /// victim pid).
    Steal,
}

const EVENT_KINDS: [EventKind; 11] = [
    EventKind::ConstructEnter,
    EventKind::ConstructExit,
    EventKind::LockAcquire,
    EventKind::LockContend,
    EventKind::BarrierArrive,
    EventKind::BarrierRelease,
    EventKind::Produce,
    EventKind::Consume,
    EventKind::Park,
    EventKind::Unpark,
    EventKind::Steal,
];

impl EventKind {
    /// Stable short name (used as the Chrome trace event name for
    /// instant events).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::ConstructEnter => "enter",
            EventKind::ConstructExit => "exit",
            EventKind::LockAcquire => "lock_acquire",
            EventKind::LockContend => "lock_contend",
            EventKind::BarrierArrive => "barrier_arrive",
            EventKind::BarrierRelease => "barrier_release",
            EventKind::Produce => "produce",
            EventKind::Consume => "consume",
            EventKind::Park => "park",
            EventKind::Unpark => "unpark",
            EventKind::Steal => "steal",
        }
    }

    fn index(self) -> u64 {
        EVENT_KINDS.iter().position(|&k| k == self).expect("listed") as u64
    }

    fn from_index(i: u64) -> EventKind {
        EVENT_KINDS
            .get(i as usize)
            .copied()
            .unwrap_or(EventKind::ConstructEnter)
    }
}

/// One decoded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the sink's monotonic origin.
    pub t_ns: u64,
    /// The emitting process.
    pub pid: usize,
    /// What happened.
    pub kind: EventKind,
    /// The innermost construct marker at emission time.
    pub construct: Construct,
    /// Event argument: the named-lock id for lock events, else 0.
    pub id: u32,
}

/// A power-of-two-bucket duration histogram with relaxed atomic buckets.
struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    /// Set on first record since the last reset, so per-job resets only
    /// zero histograms that were actually touched.
    dirty: AtomicBool,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            dirty: AtomicBool::new(false),
        }
    }

    fn bucket_of(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    #[inline]
    fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.dirty.store(true, Ordering::Relaxed);
    }

    fn reset(&self) {
        if self.dirty.load(Ordering::Relaxed) {
            for b in &self.buckets {
                b.store(0, Ordering::Relaxed);
            }
            self.sum.store(0, Ordering::Relaxed);
            self.dirty.store(false, Ordering::Relaxed);
        }
    }

    /// Whether anything was recorded since the last reset.  Untouched
    /// histograms skip both reset and snapshot — a job that never enters
    /// a construct must not pay 64 bucket loads for it at report time.
    fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a duration histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket counts; bucket 0 holds the value 0, bucket `i > 0` holds
    /// values in `[2^(i-1), 2^i)` nanoseconds.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all recorded values (for exact means).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Record one value directly into the snapshot (same bucketing as the
    /// live atomic histogram).  Used by single-writer aggregators —
    /// the job server's per-tenant latency rollups — that never share the
    /// histogram across threads and so need no atomics.
    pub fn record(&mut self, v: u64) {
        self.buckets[Histogram::bucket_of(v)] += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Fold another snapshot's counts into this one (saturating).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Exact mean of the recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// Upper bound of bucket `i`.
    fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Conservative percentile (0.0..=1.0): the upper bound of the bucket
    /// containing the `p`-quantile value.  Over-reports by at most 2x —
    /// the price of constant-space power-of-two buckets.
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(HISTOGRAM_BUCKETS - 1)
    }

    /// Conservative maximum: the upper bound of the highest non-empty
    /// bucket.
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&b| b > 0)
            .map(Self::bucket_upper)
            .unwrap_or(0)
    }
}

/// One per-pid event ring: single-writer (the owning pid), read only at
/// job quiescence.
struct Ring {
    /// Total events ever written (not capped); the writer's cursor.
    head: CachePadded<AtomicU64>,
    /// `(t_ns, kind | construct << 8 | id << 32)` pairs.
    slots: Box<[(AtomicU64, AtomicU64)]>,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            head: CachePadded::new(AtomicU64::new(0)),
            slots: (0..capacity)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
        }
    }

    #[inline]
    fn push(&self, t_ns: u64, kind: EventKind, construct: Construct, id: u32) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[h as usize & (self.slots.len() - 1)];
        let word = kind.index() | ((construct.index() as u64) << 8) | ((id as u64) << 32);
        slot.0.store(t_ns, Ordering::Relaxed);
        slot.1.store(word, Ordering::Relaxed);
        self.head.store(h + 1, Ordering::Relaxed);
    }

    fn drain(&self, pid: usize, out: &mut Vec<TraceEvent>) -> u64 {
        let head = self.head.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let kept = head.min(cap);
        let first = head - kept;
        for i in first..head {
            let slot = &self.slots[i as usize & (self.slots.len() - 1)];
            let t_ns = slot.0.load(Ordering::Relaxed);
            let word = slot.1.load(Ordering::Relaxed);
            out.push(TraceEvent {
                t_ns,
                pid,
                kind: EventKind::from_index(word & 0xff),
                construct: Construct::from_index(((word >> 8) & 0xff) as usize),
                id: (word >> 32) as u32,
            });
        }
        head - kept
    }

    fn reset(&self) {
        self.head.store(0, Ordering::Relaxed);
    }
}

/// The intern table for named locks (critical-section names): name → id,
/// plus per-id wait/hold histograms and acquire counts.
struct NamedTable {
    index: HashMap<String, u32>,
    names: Vec<String>,
    wait: Vec<Arc<Histogram>>,
    hold: Vec<Arc<Histogram>>,
    acquires: Vec<u64>,
}

impl NamedTable {
    fn new() -> NamedTable {
        NamedTable {
            index: HashMap::new(),
            names: Vec::new(),
            wait: Vec::new(),
            hold: Vec::new(),
            acquires: Vec::new(),
        }
    }
}

/// The per-job trace sink: event rings, histograms, barrier and DOALL
/// aggregates.  Owned by the fault plane, shared (via `Arc`) with each
/// process's thread-local context at install time.
pub struct TraceSink {
    origin: Instant,
    /// Stamp events with the calling process's virtual clock instead of
    /// wall time ([`crate::park::current_virtual_ns`]).  Set for jobs on
    /// [`crate::park::ParkBackend::Virtual`], where wall-clock stamps
    /// would make otherwise-identical schedules produce different
    /// traces.
    virtual_clock: bool,
    rings: Vec<Ring>,
    /// Per-construct time-in-construct (enter→exit) histograms.
    construct_time: Vec<Histogram>,
    /// Per-construct blocked-wait (park→unpark) histograms.
    construct_wait: Vec<Histogram>,
    /// Per-construct enter counts.
    construct_enters: Vec<CachePadded<AtomicU64>>,
    named: Mutex<NamedTable>,
    /// First-arrival stamp of the open barrier episode (arrivals are
    /// serialized under `BARWIN`, so a plain slot suffices).
    barrier_open: AtomicU64,
    barrier_spread: Histogram,
    /// Per-pid DOALL trips executed (accumulated over the job).
    doall_trips: Vec<CachePadded<AtomicU64>>,
}

impl TraceSink {
    /// A fresh sink for a force of `nproc` processes, stamping events
    /// with either wall time or the per-process virtual clock.
    pub fn new(nproc: usize, virtual_clock: bool) -> Arc<TraceSink> {
        Arc::new(TraceSink {
            origin: Instant::now(),
            virtual_clock,
            rings: (0..nproc).map(|_| Ring::new(RING_CAPACITY)).collect(),
            construct_time: (0..NCONSTRUCTS).map(|_| Histogram::new()).collect(),
            construct_wait: (0..NCONSTRUCTS).map(|_| Histogram::new()).collect(),
            construct_enters: (0..NCONSTRUCTS)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            named: Mutex::new(NamedTable::new()),
            barrier_open: AtomicU64::new(0),
            barrier_spread: Histogram::new(),
            doall_trips: (0..nproc)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        })
    }

    /// Number of processes the sink covers.
    pub fn nproc(&self) -> usize {
        self.rings.len()
    }

    /// Whether this sink stamps events with the virtual clock.
    pub fn is_virtual_clock(&self) -> bool {
        self.virtual_clock
    }

    /// The event stamp: nanoseconds since the sink's monotonic origin,
    /// or — on a virtual-clock sink — the calling process's virtual
    /// clock, so a replayed seed reproduces the trace byte for byte.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        if self.virtual_clock {
            return crate::park::current_virtual_ns().unwrap_or(0);
        }
        self.origin.elapsed().as_nanos() as u64
    }

    #[inline]
    fn emit(&self, pid: usize, t_ns: u64, kind: EventKind, construct: Construct, id: u32) {
        if let Some(ring) = self.rings.get(pid) {
            ring.push(t_ns, kind, construct, id);
        }
    }

    /// Clear the sink in place for the next job (same per-job semantics
    /// as `FaultPlane::reset_for_job`).  Must only run between jobs.
    pub fn reset(&self) {
        for ring in &self.rings {
            ring.reset();
        }
        for h in self.construct_time.iter().chain(&self.construct_wait) {
            h.reset();
        }
        for c in &self.construct_enters {
            c.store(0, Ordering::Relaxed);
        }
        {
            let mut named = self.named.lock();
            *named = NamedTable::new();
        }
        self.barrier_open.store(0, Ordering::Relaxed);
        self.barrier_spread.reset();
        for t in &self.doall_trips {
            t.store(0, Ordering::Relaxed);
        }
    }

    /// Intern a named lock, returning its stable id for this job.
    pub fn intern_named_lock(&self, name: &str) -> u32 {
        let mut named = self.named.lock();
        if let Some(&id) = named.index.get(name) {
            named.acquires[id as usize] += 1;
            return id;
        }
        let id = named.names.len() as u32;
        named.index.insert(name.to_string(), id);
        named.names.push(name.to_string());
        named.wait.push(Arc::new(Histogram::new()));
        named.hold.push(Arc::new(Histogram::new()));
        named.acquires.push(1);
        id
    }

    /// Record the time a process waited to enter named lock `id`.
    pub fn record_named_wait(&self, id: u32, ns: u64) {
        if let Some(h) = self.named.lock().wait.get(id as usize) {
            h.record(ns);
        }
    }

    /// Record the time a process held named lock `id`.
    pub fn record_named_hold(&self, id: u32, ns: u64) {
        if let Some(h) = self.named.lock().hold.get(id as usize) {
            h.record(ns);
        }
    }

    fn record_construct_time(&self, construct: Construct, ns: u64) {
        self.construct_time[construct.index()].record(ns);
    }

    fn record_construct_wait(&self, construct: Construct, ns: u64) {
        self.construct_wait[construct.index()].record(ns);
    }

    fn record_barrier_arrival(&self, t_ns: u64, first: bool, last: bool) {
        if first {
            self.barrier_open.store(t_ns, Ordering::Relaxed);
        }
        if last {
            let open = self.barrier_open.load(Ordering::Relaxed);
            self.barrier_spread.record(t_ns.saturating_sub(open));
        }
    }

    /// Summarize the job into a plain-data [`ProfileReport`].  Call only
    /// at job quiescence (no process of the job still running).
    pub fn report(&self) -> ProfileReport {
        let mut constructs = Vec::new();
        for (i, c) in (0..NCONSTRUCTS).map(|i| (i, Construct::from_index(i))) {
            let enters = self.construct_enters[i].load(Ordering::Relaxed);
            let time_dirty = self.construct_time[i].is_dirty();
            let wait_dirty = self.construct_wait[i].is_dirty();
            if enters == 0 && !time_dirty && !wait_dirty {
                continue;
            }
            let snap = |dirty: bool, h: &Histogram| {
                if dirty {
                    h.snapshot()
                } else {
                    HistogramSnapshot::default()
                }
            };
            constructs.push(ConstructProfile {
                construct: c.name(),
                enters,
                time: snap(time_dirty, &self.construct_time[i]),
                wait: snap(wait_dirty, &self.construct_wait[i]),
            });
        }
        let named_locks = {
            let named = self.named.lock();
            named
                .names
                .iter()
                .enumerate()
                .map(|(i, name)| NamedLockProfile {
                    name: name.clone(),
                    acquires: named.acquires[i],
                    wait: named.wait[i].snapshot(),
                    hold: named.hold[i].snapshot(),
                })
                .collect()
        };
        let mut events = Vec::new();
        let mut dropped_events = 0;
        for (pid, ring) in self.rings.iter().enumerate() {
            dropped_events += ring.drain(pid, &mut events);
        }
        events.sort_by_key(|e| e.t_ns);
        ProfileReport {
            nproc: self.nproc(),
            constructs,
            named_locks,
            barrier_spread: if self.barrier_spread.is_dirty() {
                self.barrier_spread.snapshot()
            } else {
                HistogramSnapshot::default()
            },
            doall_trips: self
                .doall_trips
                .iter()
                .map(|t| t.load(Ordering::Relaxed))
                .collect(),
            events,
            dropped_events,
        }
    }
}

/// Wait/hold profile of one construct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstructProfile {
    /// The construct name (see [`Construct::name`]).
    pub construct: &'static str,
    /// Times a process entered the construct.
    pub enters: u64,
    /// Time spent inside the construct (enter→exit), nanoseconds.
    pub time: HistogramSnapshot,
    /// Time spent blocked (parked) attributed to the construct,
    /// nanoseconds.
    pub wait: HistogramSnapshot,
}

/// Wait/hold profile of one named lock (critical-section name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedLockProfile {
    /// The lock/critical-section name.
    pub name: String,
    /// Times the lock was acquired through its named critical section.
    pub acquires: u64,
    /// Time waited to acquire, nanoseconds.
    pub wait: HistogramSnapshot,
    /// Time held, nanoseconds.
    pub hold: HistogramSnapshot,
}

/// The per-job profile surfaced by `Force::last_job_profile` and
/// `Engine::last_job_profile`: a plain-data snapshot, detached from the
/// live sink, so a later job cannot mutate an already-taken report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileReport {
    /// Number of processes in the profiled job.
    pub nproc: usize,
    /// Per-construct profiles (constructs that were never entered are
    /// omitted).
    pub constructs: Vec<ConstructProfile>,
    /// Per-named-lock profiles, in first-acquire order.
    pub named_locks: Vec<NamedLockProfile>,
    /// Barrier arrival spread (last arrival − first arrival) per episode,
    /// nanoseconds.
    pub barrier_spread: HistogramSnapshot,
    /// DOALL trips executed per pid, accumulated over the job.
    pub doall_trips: Vec<u64>,
    /// Retained trace events, time-ordered across pids.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wrap-around (oldest-first overwrite).
    pub dropped_events: u64,
}

impl ProfileReport {
    /// Whether the job recorded nothing at all.
    pub fn is_empty(&self) -> bool {
        self.constructs.is_empty()
            && self.named_locks.is_empty()
            && self.events.is_empty()
            && self.barrier_spread.is_empty()
            && self.doall_trips.iter().all(|&t| t == 0)
    }

    /// The profile of one construct by name, if it was entered.
    pub fn construct(&self, name: &str) -> Option<&ConstructProfile> {
        self.constructs.iter().find(|c| c.construct == name)
    }

    /// The profile of one named lock, if it was acquired.
    pub fn named_lock(&self, name: &str) -> Option<&NamedLockProfile> {
        self.named_locks.iter().find(|l| l.name == name)
    }

    /// Per-pid trip imbalance of the job's DOALLs: `(max, min)` executed
    /// trips across pids (`None` when no DOALL ran).  A large gap under a
    /// static policy on a skewed workload is exactly what the dynamic
    /// policies exist to close.
    pub fn doall_trip_spread(&self) -> Option<(u64, u64)> {
        if self.doall_trips.is_empty() || self.doall_trips.iter().all(|&t| t == 0) {
            return None;
        }
        let max = *self.doall_trips.iter().max().unwrap();
        let min = *self.doall_trips.iter().min().unwrap();
        Some((max, min))
    }

    /// DOALL imbalance: max per-pid trips over mean per-pid trips (1.0 =
    /// perfectly balanced; 0.0 when no DOALL ran).
    pub fn doall_imbalance(&self) -> f64 {
        let total: u64 = self.doall_trips.iter().sum();
        if total == 0 || self.doall_trips.is_empty() {
            return 0.0;
        }
        let mean = total as f64 / self.doall_trips.len() as f64;
        let max = *self.doall_trips.iter().max().unwrap() as f64;
        max / mean
    }

    /// Render the retained events as Chrome `trace_event` JSON (the
    /// `{"traceEvents": [...]}` object form, loadable in `chrome://tracing`
    /// and Perfetto).  Construct enter/exit pairs become `B`/`E` duration
    /// events named after the construct; everything else becomes an
    /// instant event.  `tid` is the Force pid; `pid` is the process id
    /// given here (useful to merge several machines into one trace).
    pub fn chrome_trace_json_as(&self, process_id: usize, process_name: &str) -> String {
        let mut out = String::new();
        self.push_chrome_events(&mut out, process_id, process_name);
        format!("{{\"traceEvents\":[{out}]}}")
    }

    /// Single-process convenience form of
    /// [`chrome_trace_json_as`](Self::chrome_trace_json_as).
    pub fn chrome_trace_json(&self) -> String {
        self.chrome_trace_json_as(0, "force")
    }

    /// Append this report's Chrome trace events (comma-separated JSON
    /// objects, no surrounding brackets) to `out` — the building block
    /// for multi-machine merged traces.
    pub fn push_chrome_events(&self, out: &mut String, process_id: usize, process_name: &str) {
        use std::fmt::Write as _;
        let mut first = out.is_empty();
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
        };
        sep(out);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{process_id},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(process_name)
        );
        for e in &self.events {
            let ts = e.t_ns as f64 / 1000.0;
            sep(out);
            match e.kind {
                EventKind::ConstructEnter => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"{}\",\"cat\":\"construct\",\"ph\":\"B\",\
                         \"ts\":{ts:.3},\"pid\":{process_id},\"tid\":{}}}",
                        e.construct.name(),
                        e.pid
                    );
                }
                EventKind::ConstructExit => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"{}\",\"cat\":\"construct\",\"ph\":\"E\",\
                         \"ts\":{ts:.3},\"pid\":{process_id},\"tid\":{}}}",
                        e.construct.name(),
                        e.pid
                    );
                }
                kind => {
                    let name = match self.named_locks.get(e.id as usize) {
                        Some(l)
                            if matches!(kind, EventKind::LockAcquire | EventKind::LockContend)
                                && e.id != u32::MAX =>
                        {
                            &l.name
                        }
                        _ => kind.name(),
                    };
                    let _ = write!(
                        out,
                        "{{\"name\":\"{}\",\"cat\":\"sync\",\"ph\":\"i\",\"s\":\"t\",\
                         \"ts\":{ts:.3},\"pid\":{process_id},\"tid\":{},\
                         \"args\":{{\"construct\":\"{}\"}}}}",
                        escape_json(name),
                        e.pid,
                        e.construct.name()
                    );
                }
            }
        }
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Hot-path hooks.  Every function below is a no-op (one thread-local
// Option test) unless the current thread runs under a force whose plane
// has tracing armed.
// ---------------------------------------------------------------------

/// Whether the current thread is tracing (its force armed a sink).
#[inline]
pub fn active() -> bool {
    fault::with_trace(|_, _, _| ()).is_some()
}

/// Stamp an event with the current construct attribution.
#[inline]
pub fn event(kind: EventKind, id: u32) {
    fault::with_trace(|sink, pid, construct| {
        let t = sink.now_ns();
        sink.emit(pid, t, kind, construct, id);
    });
}

/// Hook: a lock acquisition succeeded (`contended` = not on the first
/// attempt).  Called by every `RawLock` implementation.
#[inline]
pub fn lock_acquired(contended: bool) {
    fault::with_trace(|sink, pid, construct| {
        let t = sink.now_ns();
        if contended {
            sink.emit(pid, t, EventKind::LockContend, construct, 0);
        }
        sink.emit(pid, t, EventKind::LockAcquire, construct, 0);
    });
}

/// Hook: a full/empty produce completed (cell became FULL-bound).
#[inline]
pub fn fe_produced() {
    event(EventKind::Produce, 0);
}

/// Hook: a full/empty consume completed (cell became EMPTY-bound).
#[inline]
pub fn fe_consumed() {
    event(EventKind::Consume, 0);
}

/// Hook: a barrier arrival under `BARWIN`.  `first`/`last` flag the
/// episode's first and last arrivers (serialized by the lock), which
/// bound the episode's arrival spread.
#[inline]
pub fn barrier_arrive(first: bool, last: bool) {
    fault::with_trace(|sink, pid, construct| {
        let t = sink.now_ns();
        sink.emit(pid, t, EventKind::BarrierArrive, construct, 0);
        sink.record_barrier_arrival(t, first, last);
    });
}

/// Hook: a barrier departure under `BARWOT` (`last` = the departer that
/// re-opens the episode).
#[inline]
pub fn barrier_release(last: bool) {
    fault::with_trace(|sink, pid, construct| {
        let t = sink.now_ns();
        sink.emit(
            pid,
            t,
            EventKind::BarrierRelease,
            construct,
            u32::from(last),
        );
    });
}

/// Hook: this process executed `trips` trips of a DOALL occurrence.
#[inline]
pub fn doall_trips(trips: u64) {
    if trips == 0 {
        return;
    }
    fault::with_trace(|sink, pid, _| {
        if let Some(slot) = sink.doall_trips.get(pid) {
            slot.fetch_add(trips, Ordering::Relaxed);
        }
    });
}

/// Intern a named lock (critical-section name) on the current sink,
/// counting one acquire.  Returns `None` when not tracing — callers use
/// that to skip the instrumented path entirely.
#[inline]
pub fn named_lock_id(name: &str) -> Option<u32> {
    fault::with_trace(|sink, _, _| sink.intern_named_lock(name))
}

/// Nanoseconds on the current sink's clock (`None` when not tracing).
#[inline]
pub fn now_ns() -> Option<u64> {
    fault::with_trace(|sink, _, _| sink.now_ns())
}

/// Record a named-lock wait time measured by the caller.
#[inline]
pub fn named_wait(id: u32, ns: u64) {
    fault::with_trace(|sink, _, _| sink.record_named_wait(id, ns));
}

/// Record a named-lock hold time measured by the caller.
#[inline]
pub fn named_hold(id: u32, ns: u64) {
    fault::with_trace(|sink, _, _| sink.record_named_hold(id, ns));
}

/// Internal hook for `fault::enter`: stamp the enter event and return
/// the start time for the matching exit.
pub(crate) fn construct_entered(sink: &TraceSink, pid: usize, construct: Construct) -> u64 {
    let t = sink.now_ns();
    sink.construct_enters[construct.index()].fetch_add(1, Ordering::Relaxed);
    sink.emit(pid, t, EventKind::ConstructEnter, construct, 0);
    t
}

/// Internal hook for `ConstructGuard::drop`: stamp the exit event and
/// record time-in-construct.
pub(crate) fn construct_exited(sink: &TraceSink, pid: usize, construct: Construct, t0: u64) {
    let t = sink.now_ns();
    sink.emit(pid, t, EventKind::ConstructExit, construct, 0);
    sink.record_construct_time(construct, t.saturating_sub(t0));
}

/// Internal hook for `fault::parked`: stamp the park event and return the
/// start time for the matching unpark.
pub(crate) fn park_begun(sink: &TraceSink, pid: usize, construct: Construct) -> u64 {
    let t = sink.now_ns();
    sink.emit(pid, t, EventKind::Park, construct, 0);
    t
}

/// Internal hook for `ParkGuard::drop`: stamp the unpark event and record
/// the blocked-wait time against the parked construct.
pub(crate) fn park_ended(sink: &TraceSink, pid: usize, construct: Construct, t0: u64) {
    let t = sink.now_ns();
    sink.emit(pid, t, EventKind::Unpark, construct, 0);
    sink.record_construct_wait(construct, t.saturating_sub(t0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles_are_conservative_bounds() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.mean(), 221);
        // p50 is the 3rd of 5 values (3) → bucket [2,4) upper bound 3.
        assert_eq!(s.percentile(0.5), 3);
        // p100 covers 1000 → bucket [512,1024) upper bound 1023.
        assert_eq!(s.percentile(1.0), 1023);
        assert_eq!(s.max(), 1023);
        assert_eq!(s.percentile(0.0), 1, "rank clamps to the first value");
    }

    #[test]
    fn snapshot_record_matches_live_histogram_bucketing() {
        let live = Histogram::new();
        let mut snap = HistogramSnapshot::default();
        for v in [0u64, 1, 3, 100, 1000, u64::MAX] {
            live.record(v);
            snap.record(v);
        }
        let live_snap = live.snapshot();
        assert_eq!(snap.buckets, live_snap.buckets);
        assert_eq!(snap.count(), live_snap.count());
        // The live sum wraps (relaxed u64 add); the snapshot saturates —
        // compare percentiles, which only read buckets.
        assert_eq!(snap.percentile(0.5), live_snap.percentile(0.5));
        assert_eq!(snap.max(), live_snap.max());
    }

    #[test]
    fn snapshot_merge_sums_counts() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        for v in [1u64, 2, 3] {
            a.record(v);
        }
        for v in [100u64, 1000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum, 1106);
        assert_eq!(a.max(), 1023);
        // Merging an empty snapshot is the identity.
        let before = a;
        a.merge(&HistogramSnapshot::default());
        assert_eq!(a, before);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0);
        assert_eq!(s.percentile(0.99), 0);
        assert_eq!(s.max(), 0);
    }

    #[test]
    fn ring_keeps_the_newest_events_and_counts_drops() {
        let ring = Ring::new(4);
        for i in 0..7u64 {
            ring.push(i, EventKind::LockAcquire, Construct::Critical, i as u32);
        }
        let mut out = Vec::new();
        let dropped = ring.drain(2, &mut out);
        assert_eq!(dropped, 3);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].t_ns, 3, "oldest retained event");
        assert_eq!(out[3].t_ns, 6, "newest event");
        assert!(out.iter().all(|e| e.pid == 2));
        assert!(out.iter().all(|e| e.kind == EventKind::LockAcquire));
        assert!(out.iter().all(|e| e.construct == Construct::Critical));
        assert_eq!(out[3].id, 6);
    }

    #[test]
    fn sink_round_trips_events_and_histograms() {
        let sink = TraceSink::new(2, false);
        sink.emit(0, 10, EventKind::BarrierArrive, Construct::Barrier, 0);
        sink.emit(1, 5, EventKind::Park, Construct::Consume, 0);
        sink.record_construct_time(Construct::Barrier, 100);
        sink.record_construct_wait(Construct::Consume, 50);
        sink.construct_enters[Construct::Barrier.index()].fetch_add(1, Ordering::Relaxed);
        let id = sink.intern_named_lock("HOT");
        sink.record_named_wait(id, 7);
        sink.record_named_hold(id, 9);
        sink.record_barrier_arrival(100, true, false);
        sink.record_barrier_arrival(160, false, true);
        if let Some(slot) = sink.doall_trips.first() {
            slot.fetch_add(12, Ordering::Relaxed);
        }

        let r = sink.report();
        assert!(!r.is_empty());
        assert_eq!(r.nproc, 2);
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.events[0].t_ns, 5, "events are time-ordered across pids");
        assert_eq!(r.events[0].pid, 1);
        assert_eq!(r.dropped_events, 0);
        let b = r.construct("barrier").expect("barrier profiled");
        assert_eq!(b.enters, 1);
        assert_eq!(b.time.count(), 1);
        let c = r.construct("consume").expect("consume profiled");
        assert_eq!(c.wait.count(), 1);
        let l = r.named_lock("HOT").expect("named lock profiled");
        assert_eq!(l.acquires, 1);
        assert_eq!(l.wait.count(), 1);
        assert_eq!(l.hold.count(), 1);
        assert_eq!(r.barrier_spread.count(), 1);
        assert!(r.barrier_spread.percentile(1.0) >= 60);
        assert_eq!(r.doall_trips, vec![12, 0]);
        assert!((r.doall_imbalance() - 2.0).abs() < 1e-9, "12 vs mean 6");
        assert_eq!(r.doall_trip_spread(), Some((12, 0)));
    }

    #[test]
    fn trip_spread_is_none_without_doalls() {
        let sink = TraceSink::new(3, false);
        assert_eq!(sink.report().doall_trip_spread(), None);
    }

    #[test]
    fn steal_events_round_trip_with_their_victim() {
        let sink = TraceSink::new(2, false);
        sink.emit(0, 42, EventKind::Steal, Construct::Askfor, 1);
        let r = sink.report();
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.events[0].kind, EventKind::Steal);
        assert_eq!(r.events[0].id, 1, "id carries the victim pid");
        let json = r.chrome_trace_json();
        assert!(json.contains("\"name\":\"steal\""), "{json}");
    }

    #[test]
    fn reset_clears_everything() {
        let sink = TraceSink::new(1, false);
        sink.emit(0, 1, EventKind::LockAcquire, Construct::Critical, 0);
        sink.record_construct_time(Construct::Critical, 5);
        let id = sink.intern_named_lock("L");
        sink.record_named_hold(id, 2);
        sink.record_barrier_arrival(3, true, true);
        sink.doall_trips[0].fetch_add(4, Ordering::Relaxed);
        assert!(!sink.report().is_empty());
        sink.reset();
        assert!(sink.report().is_empty(), "reset leaves a blank job profile");
    }

    #[test]
    fn chrome_export_is_structured() {
        let sink = TraceSink::new(1, false);
        sink.emit(0, 1000, EventKind::ConstructEnter, Construct::Critical, 0);
        sink.emit(0, 3000, EventKind::ConstructExit, Construct::Critical, 0);
        sink.emit(0, 2000, EventKind::LockAcquire, Construct::Critical, 0);
        let r = sink.report();
        let json = r.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"critical\""));
        assert!(json.contains("\"ts\":1.000"), "ns become µs: {json}");
    }

    #[test]
    fn hooks_are_inert_outside_a_force() {
        assert!(!active());
        event(EventKind::LockAcquire, 0);
        lock_acquired(true);
        fe_produced();
        fe_consumed();
        barrier_arrive(true, true);
        barrier_release(true);
        doall_trips(10);
        named_wait(0, 1);
        named_hold(0, 1);
        assert_eq!(named_lock_id("X"), None);
        assert_eq!(now_ns(), None);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny"), "x\\u000ay");
    }
}
