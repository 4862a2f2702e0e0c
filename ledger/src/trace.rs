//! Benchmark-side tracing: spans recorded around the calls into each
//! layer's public functions, and a timing [`PageStore`] wrapper to put
//! above and below the buffer pool. Nothing here lives in the library;
//! spans inside it are a later change.
//!
//! Spans are kept in memory and written out once, when the run ends.

use crate::json::quote;
use page_store::{IoStats, PageId, PageStore, PAGE_SIZE};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One timed interval. `req` is shared by every span of one operation;
/// `parent` is the span that caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `true` when the interval was placed from a clock the library
    /// reports (`QueryStats::filter_nanos`, `ServiceReport` latencies)
    /// instead of being timed by the benchmark around a call.
    pub derived: bool,
}

/// Handle of a span opened with [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// The span recorder of a traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            req,
            name,
            start_ns,
            end_ns: start_ns,
            derived: false,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes the innermost open span, which must be `open`. Returns its
    /// duration.
    pub fn exit(&mut self, open: Open) -> u64 {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, req);
        let out = f();
        self.exit(open);
        out
    }

    /// Adds a child of span `parent` from a duration the library measured
    /// itself. `from_end` anchors it at the parent's end instead of its
    /// start (the refinement phase is the tail of a query). The interval is
    /// clipped to the parent.
    pub fn derived(&mut self, parent: Open, name: &'static str, duration_ns: u64, from_end: bool) {
        let p = &self.spans[parent.0 as usize];
        let (ps, pe, req) = (p.start_ns, p.end_ns, p.req);
        let duration_ns = duration_ns.min(pe - ps);
        let (start_ns, end_ns) = if from_end {
            (pe - duration_ns, pe)
        } else {
            (ps, ps + duration_ns)
        };
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: Some(parent.0),
            req,
            name,
            start_ns,
            end_ns,
            derived: true,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// `(total, self)` nanoseconds over every span called `name`: a
    /// span's self time is its duration minus the part of that interval
    /// its direct children cover.
    pub fn total_and_self_ns(&self, name: &str) -> (u64, u64) {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let (mut total, mut own) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == name) {
            let kids = &mut children[s.id as usize];
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let dur = s.end_ns - s.start_ns;
            total += dur;
            own += dur - covered;
        }
        (total, own)
    }

    /// Share of the time of the spans called any of `roots` that no child
    /// span covers, in percent.
    pub fn unattributed_pct(&self, roots: &[&str]) -> f64 {
        let (mut total, mut own) = (0u64, 0u64);
        for root in roots {
            let (t, o) = self.total_and_self_ns(root);
            total += t;
            own += o;
        }
        if total == 0 {
            0.0
        } else {
            100.0 * own as f64 / total as f64
        }
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":{},\"seed\":{seed},\"unit\":\"ns\",\"spans\":[",
            quote(workload)
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":{},\"start\":{},\"end\":{},\"derived\":{}}}",
                s.id,
                s.req,
                quote(s.name),
                s.start_ns,
                s.end_ns,
                s.derived
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// Nanoseconds it costs to record one span, measured on a scratch
/// recorder with the pattern the workloads use (a timed span and a
/// derived child).
pub fn span_cost_ns() -> f64 {
    const ROUNDS: u64 = 20_000;
    let mut scratch = Tracer::new();
    let t0 = Instant::now();
    for req in 0..ROUNDS {
        let open = scratch.enter("calibrate", req);
        let ns = scratch.exit(open);
        scratch.derived(open, "calibrate.child", ns, false);
    }
    std::hint::black_box(&scratch);
    t0.elapsed().as_nanos() as f64 / (2 * ROUNDS) as f64
}

/// Read/write counts and clocks of one [`TimedStore`], shared with the
/// benchmark after the store has moved into a tree.
#[derive(Debug, Default)]
pub struct StoreClock {
    // ordering: Relaxed throughout — statistics that publish no other data.
    reads: AtomicU64,
    read_ns: AtomicU64,
    writes: AtomicU64,
    write_ns: AtomicU64,
}

impl StoreClock {
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
    pub fn read_ns(&self) -> u64 {
        self.read_ns.load(Ordering::Relaxed)
    }
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
    pub fn write_ns(&self) -> u64 {
        self.write_ns.load(Ordering::Relaxed)
    }
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.read_ns.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.write_ns.store(0, Ordering::Relaxed);
    }
}

/// A [`PageStore`] that times the counted reads and the writes it passes
/// on. Installed above and below a `BufferPool`, the difference of the
/// two read clocks is the pool's own time.
#[derive(Debug)]
pub struct TimedStore<S: PageStore> {
    inner: S,
    clock: Arc<StoreClock>,
}

impl<S: PageStore> TimedStore<S> {
    pub fn new(inner: S) -> (Self, Arc<StoreClock>) {
        let clock = Arc::new(StoreClock::default());
        (
            Self {
                inner,
                clock: Arc::clone(&clock),
            },
            clock,
        )
    }
}

impl<S: PageStore> PageStore for TimedStore<S> {
    fn allocate(&mut self) -> io::Result<PageId> {
        self.inner.allocate()
    }

    fn release(&mut self, id: PageId) {
        self.inner.release(id)
    }

    fn read_into(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> io::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.read_into(id, out);
        self.clock
            .read_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.clock.reads.fetch_add(1, Ordering::Relaxed);
        r
    }

    fn peek_into(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> io::Result<()> {
        self.inner.peek_into(id, out)
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> io::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.write(id, data);
        self.clock
            .write_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.clock.writes.fetch_add(1, Ordering::Relaxed);
        r
    }

    fn stats(&self) -> &Arc<IoStats> {
        self.inner.stats()
    }

    fn live_pages(&self) -> usize {
        self.inner.live_pages()
    }

    fn capacity_pages(&self) -> usize {
        self.inner.capacity_pages()
    }

    fn free_list(&self) -> Vec<PageId> {
        self.inner.free_list()
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn backing_path(&self) -> Option<std::path::PathBuf> {
        self.inner.backing_path()
    }

    fn size_bytes(&self) -> u64 {
        self.inner.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use page_store::PageFile;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut t = Tracer::new();
        let root = t.enter("op", 1);
        let a = t.enter("child", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(a);
        t.exit(root);
        // A derived child overlapping the timed one must not be counted twice.
        let dur = t.spans()[0].end_ns - t.spans()[0].start_ns;
        t.derived(root, "phase", dur, false);
        let (total, own) = t.total_and_self_ns("op");
        assert_eq!(total, dur);
        assert_eq!(own, 0, "the derived child covers the whole parent");
        assert_eq!(t.unattributed_pct(&["op"]), 0.0);
        assert_eq!(t.durations("child").len(), 1);
        assert!(t.durations("child")[0] >= 2_000_000);
    }

    #[test]
    fn derived_spans_are_clipped_and_anchored() {
        let mut t = Tracer::new();
        let root = t.enter("op", 9);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.exit(root);
        let (s, e) = (t.spans()[0].start_ns, t.spans()[0].end_ns);
        t.derived(root, "head", (e - s) / 4, false);
        t.derived(root, "tail", u64::MAX, true);
        let head = &t.spans()[1];
        let tail = &t.spans()[2];
        assert_eq!((head.start_ns, head.req, head.derived), (s, 9, true));
        assert_eq!(
            (tail.start_ns, tail.end_ns),
            (s, e),
            "clipped to the parent"
        );
    }

    #[test]
    fn recording_a_span_costs_well_under_a_microsecond_or_so() {
        let ns = span_cost_ns();
        assert!(ns > 0.0 && ns < 5_000.0, "{ns} ns per span");
    }

    #[test]
    fn timed_store_counts_reads_and_writes() {
        let (mut store, clock) = TimedStore::new(PageFile::new());
        let id = store.allocate().unwrap();
        store.write(id, b"abc").unwrap();
        let page = store.read_page(id).unwrap();
        assert_eq!(&page[..3], b"abc");
        store.peek_page(id).unwrap();
        assert_eq!((clock.reads(), clock.writes()), (1, 1));
        assert_eq!(store.stats().reads(), 1, "the wrapped store still counts");
        clock.reset();
        assert_eq!(clock.reads() + clock.read_ns() + clock.write_ns(), 0);
    }

    #[test]
    fn trace_file_is_json() {
        let mut t = Tracer::new();
        t.span("setup", 0, || ());
        let dir = std::env::temp_dir().join(format!("ledger-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        t.write_json(&path, "w", 3).unwrap();
        let doc = crate::json::Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(doc.get("spans").and_then(|s| s.as_arr()).unwrap().len(), 1);
    }
}
