//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! An op span brackets one `Db::get/put/range` call. A storage span
//! brackets one call into the [`Backend`] under the store, through
//! [`TimedBackend`], and names the op span that was open when it ran as its
//! parent (the client is the only thread, and flushes run inline on it).
//! Spans stay in memory until the pass ends; an op's self time is its
//! duration minus the time of its storage children.

use bytes::Bytes;
use monkey_storage::{Backend, Result, RunId};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a span covers. The op kinds are the classes the benchmark loop assigns
/// from counter deltas; together they partition the timed phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// Get answered by the memtable: no key hash was taken.
    GetMemtable,
    /// Get rejected by filters (or fences) without touching a page.
    GetRejected,
    /// Get whose page probes were all served by the block cache.
    GetCacheHit,
    /// Get that read at least one page from the backend.
    GetBackend,
    /// Put that did not fill the memtable.
    Put,
    /// Put that filled the memtable and ran the flush and merges inline.
    PutFlush,
    Scan,
    StorageRead,
    StorageWrite,
    StorageSeal,
    StorageDelete,
    StorageMeta,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            Self::GetMemtable => "get.memtable",
            Self::GetRejected => "get.rejected",
            Self::GetCacheHit => "get.cache_hit",
            Self::GetBackend => "get.backend",
            Self::Put => "put",
            Self::PutFlush => "put.flush",
            Self::Scan => "scan",
            Self::StorageRead => "storage.read",
            Self::StorageWrite => "storage.write",
            Self::StorageSeal => "storage.seal",
            Self::StorageDelete => "storage.delete",
            Self::StorageMeta => "storage.meta",
        }
    }

    /// The op classes of a get.
    pub const GETS: [SpanKind; 4] = [
        Self::GetMemtable,
        Self::GetRejected,
        Self::GetCacheHit,
        Self::GetBackend,
    ];

    pub fn is_storage(self) -> bool {
        self >= Self::StorageRead
    }
}

/// One closed span. Ids start at 1; parent 0 means "outside any op".
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub kind: SpanKind,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Pages moved by a storage span (1 for a single-page call).
    pub pages: u32,
}

/// In-memory span sink shared by the benchmark loop and the storage wrapper.
pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU64,
    current_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// A log with room for `spans` spans before it reallocates.
    pub fn with_capacity(spans: usize) -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            current_op: AtomicU64::new(0),
            spans: Mutex::new(Vec::with_capacity(spans)),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens an op: storage spans recorded until [`end_op`](Self::end_op)
    /// become its children.
    pub fn begin_op(&self) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.current_op.store(id, Ordering::Relaxed);
        id
    }

    pub fn end_op(&self, id: u64, kind: SpanKind, start_ns: u64, end_ns: u64) {
        self.current_op.store(0, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: 0,
            kind,
            start_ns,
            dur_ns: end_ns - start_ns,
            pages: 0,
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Takes every span recorded so far, keeping the log's capacity.
    pub fn drain(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .drain(..)
            .collect()
    }

    fn storage<T>(&self, kind: SpanKind, pages: u32, call: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.current_op.load(Ordering::Relaxed),
            kind,
            start_ns,
            dur_ns: end_ns - start_ns,
            pages,
        });
        out
    }
}

/// A [`Backend`] that forwards every call to `inner` and records a storage
/// span around it. Handed to the engine through `Disk::with_backend`.
pub struct TimedBackend {
    inner: Arc<dyn Backend>,
    log: Arc<SpanLog>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn Backend>, log: Arc<SpanLog>) -> Self {
        Self { inner, log }
    }
}

impl Backend for TimedBackend {
    fn append_page(&self, run: RunId, page_no: u32, data: &[u8]) -> Result<()> {
        self.log.storage(SpanKind::StorageWrite, 1, || {
            self.inner.append_page(run, page_no, data)
        })
    }

    fn seal(&self, run: RunId) -> Result<()> {
        self.log
            .storage(SpanKind::StorageSeal, 0, || self.inner.seal(run))
    }

    fn read_page(&self, run: RunId, page_no: u32) -> Result<Bytes> {
        self.log.storage(SpanKind::StorageRead, 1, || {
            self.inner.read_page(run, page_no)
        })
    }

    fn read_batch(&self, run: RunId, start: u32, count: u32) -> Result<Vec<Bytes>> {
        self.log.storage(SpanKind::StorageRead, count, || {
            self.inner.read_batch(run, start, count)
        })
    }

    fn read_scattered(&self, reqs: &[(RunId, u32)]) -> Result<Vec<Bytes>> {
        let pages = u32::try_from(reqs.len()).unwrap_or(u32::MAX);
        self.log.storage(SpanKind::StorageRead, pages, || {
            self.inner.read_scattered(reqs)
        })
    }

    fn pages(&self, run: RunId) -> Result<u32> {
        self.log
            .storage(SpanKind::StorageMeta, 0, || self.inner.pages(run))
    }

    fn delete(&self, run: RunId) -> Result<()> {
        self.log
            .storage(SpanKind::StorageDelete, 0, || self.inner.delete(run))
    }

    fn list(&self) -> Vec<RunId> {
        self.log
            .storage(SpanKind::StorageMeta, 0, || self.inner.list())
    }
}

/// Per-kind totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time of storage children (ops only).
    pub self_ns: u64,
    /// Pages moved (storage spans only).
    pub pages: u64,
}

impl KindTotals {
    pub fn add(&mut self, other: &Self) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.pages += other.pages;
    }

    fn of(span: &Span, self_ns: u64) -> Self {
        Self {
            count: 1,
            total_ns: span.dur_ns,
            self_ns,
            pages: u64::from(span.pages),
        }
    }
}

/// Totals per span kind, plus the slowest ops with their storage children.
#[derive(Default)]
pub struct SpanSummary {
    pub kinds: BTreeMap<SpanKind, KindTotals>,
    pub slowest: Vec<(Span, BTreeMap<SpanKind, KindTotals>)>,
}

/// Folds a pass's spans into per-kind totals. Storage spans that ran
/// outside any op (during the load phase) are not counted.
pub fn summarize(spans: &[Span], keep_slowest: usize) -> SpanSummary {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    let mut kinds: BTreeMap<SpanKind, KindTotals> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.kind.is_storage() && s.parent != 0)
    {
        *child_ns.entry(s.parent).or_default() += s.dur_ns;
        kinds
            .entry(s.kind)
            .or_default()
            .add(&KindTotals::of(s, s.dur_ns));
    }
    let mut ops: Vec<&Span> = spans.iter().filter(|s| !s.kind.is_storage()).collect();
    for s in &ops {
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        let own = KindTotals::of(s, s.dur_ns.saturating_sub(children));
        kinds.entry(s.kind).or_default().add(&own);
    }
    ops.sort_by_key(|s| std::cmp::Reverse(s.dur_ns));
    ops.truncate(keep_slowest);
    let slowest = ops
        .into_iter()
        .map(|op| {
            let mut children: BTreeMap<SpanKind, KindTotals> = BTreeMap::new();
            for s in spans.iter().filter(|s| s.parent == op.id) {
                children
                    .entry(s.kind)
                    .or_default()
                    .add(&KindTotals::of(s, s.dur_ns));
            }
            (*op, children)
        })
        .collect();
    SpanSummary { kinds, slowest }
}
