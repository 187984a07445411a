//! One pass: open a fresh store, load it, run the timed op stream, check
//! every answer, and read the engine's counters.

use crate::trace::{summarize, SpanKind, SpanLog, SpanSummary, TimedBackend};
use crate::workload::{
    existing_key, missing_key, value_for, Inputs, Op, Workload, ENTRY_BYTES, SCAN_LEN,
};
use bytes::Bytes;
use monkey::DbOptionsExt;
use monkey_lsm::{Db, DbOptions, IoBackend, MergePolicy};
use monkey_storage::{BlockCache, CacheConfig, Disk, MemBackend};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub const PAGE_SIZE: usize = 4096;

/// The paper's system at engine defaults, with every option that an
/// environment variable or a default could change pinned explicitly.
pub fn options(workload: Workload, dir: &Path) -> DbOptions {
    let base = match workload.cache_bytes() {
        Some(bytes) => DbOptions::in_memory_cached(bytes),
        None => DbOptions::at_path(dir),
    };
    base.monkey_filters(10.0)
        .merge_policy(MergePolicy::Leveling)
        .size_ratio(10)
        .page_size(PAGE_SIZE)
        .buffer_capacity(1 << 20)
        .shards(1)
        .compaction_threads(1)
        .io_backend(IoBackend::Buffered)
        .background_compaction(false)
        .wal_sync_each_append(false)
        .telemetry(false)
        .tracing(false)
}

/// The engine's public counters, read together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub page_reads: u64,
    pub page_writes: u64,
    pub seeks: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub key_hashes: u64,
    pub filter_probes: u64,
    pub filter_negatives: u64,
    pub filter_false_positives: u64,
    pub flushes: u64,
    pub merges: u64,
    pub entries_rewritten: u64,
    pub wal_group_commits: u64,
    pub wal_syncs: u64,
}

impl Counters {
    pub fn read(db: &Db) -> Self {
        let io = db.io();
        let lookups = db.lookup_stats();
        let compaction = db.compaction_stats();
        let pipeline = db.pipeline_stats();
        let cache = db.disk().cache_stats().unwrap_or_default();
        Self {
            page_reads: io.page_reads,
            page_writes: io.page_writes,
            seeks: io.seeks,
            cache_hits: io.cache_hits,
            cache_misses: cache.misses,
            key_hashes: lookups.key_hashes,
            filter_probes: lookups.filter_probes,
            filter_negatives: lookups.filter_negatives,
            filter_false_positives: lookups.filter_false_positives,
            flushes: compaction.flushes,
            merges: compaction.merges,
            entries_rewritten: compaction.entries_rewritten,
            wal_group_commits: pipeline.wal_group_commits,
            wal_syncs: pipeline.wal_syncs,
        }
    }

    pub fn since(&self, e: &Self) -> Self {
        Self {
            page_reads: self.page_reads - e.page_reads,
            page_writes: self.page_writes - e.page_writes,
            seeks: self.seeks - e.seeks,
            cache_hits: self.cache_hits - e.cache_hits,
            cache_misses: self.cache_misses - e.cache_misses,
            key_hashes: self.key_hashes - e.key_hashes,
            filter_probes: self.filter_probes - e.filter_probes,
            filter_negatives: self.filter_negatives - e.filter_negatives,
            filter_false_positives: self.filter_false_positives - e.filter_false_positives,
            flushes: self.flushes - e.flushes,
            merges: self.merges - e.merges,
            entries_rewritten: self.entries_rewritten - e.entries_rewritten,
            wal_group_commits: self.wal_group_commits - e.wal_group_commits,
            wal_syncs: self.wal_syncs - e.wal_syncs,
        }
    }

    pub fn add(&mut self, d: &Self) {
        self.page_reads += d.page_reads;
        self.page_writes += d.page_writes;
        self.seeks += d.seeks;
        self.cache_hits += d.cache_hits;
        self.cache_misses += d.cache_misses;
        self.key_hashes += d.key_hashes;
        self.filter_probes += d.filter_probes;
        self.filter_negatives += d.filter_negatives;
        self.filter_false_positives += d.filter_false_positives;
        self.flushes += d.flushes;
        self.merges += d.merges;
        self.entries_rewritten += d.entries_rewritten;
        self.wal_group_commits += d.wal_group_commits;
        self.wal_syncs += d.wal_syncs;
    }
}

/// What a traced pass adds to a plain one.
pub struct TracedPass {
    pub spans: SpanSummary,
    /// Counter deltas summed per op class.
    pub class_counters: BTreeMap<SpanKind, Counters>,
    pub zero_result_gets: u64,
    pub zero_result_false_positives: u64,
    pub scan_entries: u64,
}

/// Everything one pass measured.
pub struct Pass {
    pub setup_s: f64,
    pub timed_s: f64,
    pub gets: u64,
    pub puts: u64,
    pub scans: u64,
    /// Per-op latencies in nanoseconds, by op kind.
    pub get_ns: Vec<u64>,
    pub put_ns: Vec<u64>,
    pub scan_ns: Vec<u64>,
    /// Pages read from storage during gets and scans.
    pub read_op_page_reads: u64,
    /// Counter deltas over the timed phase.
    pub timed: Counters,
    /// Counters at the end of the pass (the store was fresh at its start).
    pub end: Counters,
    /// `wchar` growth of the process over the timed phase.
    pub wchar: u64,
    /// Bytes of run pages on storage at the end of the pass.
    pub stored_bytes: u64,
    /// RSS growth from just before `Db::open` to the end of the pass.
    pub rss_growth: u64,
    /// `expected_zero_result_lookup_ios` (Eq. 3), mean of the timed
    /// phase's start and end.
    pub model_zero_result_ios: f64,
    pub failures: u64,
    pub first_failure: Option<String>,
    /// Fold of every answer's shape; equal inputs give equal digests.
    pub digest: u64,
    pub trace: Option<TracedPass>,
    /// `Db::options()` and `Db::io_backend_info()` of the store.
    pub options: String,
    pub backend: String,
}

impl Pass {
    pub fn ops(&self) -> u64 {
        self.gets + self.puts + self.scans
    }

    pub fn throughput(&self) -> f64 {
        self.ops() as f64 / self.timed_s
    }
}

/// Runs one pass. `store_root` is where a directory store is created (and
/// removed again); `traced` records spans and classifies every op.
pub fn run_pass(inputs: &Inputs, traced: bool, store_root: &Path) -> Result<Pass, String> {
    let dir = StoreDir::new(store_root)?;
    let opts = options(inputs.workload, dir.path());
    let log = traced.then(|| SpanLog::with_capacity(2 * inputs.ops.len()));
    // Latency slots are allocated and touched before the RSS baseline, so
    // neither a reallocation in the timed loop nor the benchmark's own
    // memory shows up in the measurement.
    let count = |f: fn(&Op) -> bool| inputs.ops.iter().filter(|op| f(op)).count();
    let get_ns = vec![0; count(|op| matches!(op, Op::GetMissing(_) | Op::GetExisting(_)))];
    let put_ns = vec![0; count(|op| matches!(op, Op::Put(_)))];
    let scan_ns = vec![0; count(|op| matches!(op, Op::Scan(_)))];
    let rss_before = rss_bytes();

    let setup_start = Instant::now();
    let db = open(opts, inputs.workload, log.as_ref()).map_err(|e| format!("open: {e}"))?;
    for &i in &inputs.load_order {
        put(&db, i).map_err(|e| format!("load put: {e}"))?;
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let mut pass = Pass {
        setup_s,
        timed_s: 0.0,
        gets: 0,
        puts: 0,
        scans: 0,
        get_ns,
        put_ns,
        scan_ns,
        read_op_page_reads: 0,
        timed: Counters::default(),
        end: Counters::default(),
        wchar: 0,
        stored_bytes: 0,
        rss_growth: 0,
        model_zero_result_ios: 0.0,
        failures: 0,
        first_failure: None,
        digest: 0xcbf2_9ce4_8422_2325,
        trace: None,
        options: format!("{:?}", db.options()),
        backend: format!("{:?}", db.io_backend_info()),
    };
    let mut traced_pass = log.as_ref().map(|_| TracedPass {
        spans: SpanSummary::default(),
        class_counters: BTreeMap::new(),
        zero_result_gets: 0,
        zero_result_false_positives: 0,
        scan_entries: 0,
    });
    if let Some(log) = &log {
        log.drain();
    }

    let model_start = db.stats().expected_zero_result_lookup_ios;
    let wchar_start = wchar_bytes();
    let start_counters = Counters::read(&db);
    let mut io_prev = db.io();
    let mut prev = start_counters;
    let timed_start = Instant::now();
    for op in &inputs.ops {
        let span = log.as_ref().map(|l| (l.begin_op(), l.now_ns()));
        let t0 = Instant::now();
        let answer = execute(&db, *op);
        let ns = t0.elapsed().as_nanos() as u64;
        let end_ns = log.as_ref().map(|l| l.now_ns());
        let io = db.io();
        match op {
            Op::GetMissing(_) | Op::GetExisting(_) => {
                pass.get_ns[pass.gets as usize] = ns;
                pass.gets += 1;
                pass.read_op_page_reads += io.page_reads - io_prev.page_reads;
            }
            Op::Put(_) => {
                pass.put_ns[pass.puts as usize] = ns;
                pass.puts += 1;
            }
            Op::Scan(_) => {
                pass.scan_ns[pass.scans as usize] = ns;
                pass.scans += 1;
                pass.read_op_page_reads += io.page_reads - io_prev.page_reads;
            }
        }
        io_prev = io;
        let entries = check(*op, answer, &mut pass);
        if let (Some(log), Some(tp), Some((id, start_ns)), Some(end_ns)) =
            (&log, traced_pass.as_mut(), span, end_ns)
        {
            let now = Counters::read(&db);
            let d = now.since(&prev);
            prev = now;
            let kind = classify(*op, &d);
            tp.class_counters.entry(kind).or_default().add(&d);
            if let Op::GetMissing(_) = op {
                tp.zero_result_gets += 1;
                tp.zero_result_false_positives += d.filter_false_positives;
            }
            tp.scan_entries += entries;
            log.end_op(id, kind, start_ns, end_ns);
        }
    }
    pass.timed_s = timed_start.elapsed().as_secs_f64();
    pass.end = Counters::read(&db);
    pass.timed = pass.end.since(&start_counters);
    pass.wchar = wchar_bytes().saturating_sub(wchar_start);
    pass.model_zero_result_ios = (model_start + db.stats().expected_zero_result_lookup_ios) / 2.0;
    pass.stored_bytes = stored_bytes(db.disk());
    pass.rss_growth = rss_bytes().saturating_sub(rss_before);
    if let (Some(log), Some(mut tp)) = (log, traced_pass) {
        tp.spans = summarize(&log.drain(), 5);
        pass.trace = Some(tp);
    }
    drop(db);
    dir.remove()?;
    Ok(pass)
}

fn open(
    opts: DbOptions,
    workload: Workload,
    log: Option<&Arc<SpanLog>>,
) -> monkey_lsm::Result<Arc<Db>> {
    match (log, workload.cache_bytes()) {
        // `open_with_disk` attaches no WAL, so the directory store keeps
        // its own disk and its storage calls go untimed.
        (Some(log), Some(cache_bytes)) => {
            let backend = TimedBackend::new(Arc::new(MemBackend::new()), Arc::clone(log));
            let cache =
                BlockCache::with_config(CacheConfig::lru(cache_bytes).with_page_size(PAGE_SIZE));
            Db::open_with_disk(
                opts,
                Disk::with_backend(Arc::new(backend), PAGE_SIZE, Some(cache)),
            )
        }
        _ => Db::open(opts),
    }
}

/// What an op returned, kept until the timer has stopped.
enum Answer {
    Get(Option<Bytes>),
    Put,
    Scan(Vec<(Bytes, Bytes)>),
}

/// A client put: the key and value are copied into buffers the store owns.
fn put(db: &Db, i: u32) -> monkey_lsm::Result<()> {
    db.put(
        Bytes::copy_from_slice(&existing_key(i)),
        Bytes::copy_from_slice(&value_for(i)),
    )
}

fn execute(db: &Db, op: Op) -> monkey_lsm::Result<Answer> {
    Ok(match op {
        Op::GetMissing(i) => Answer::Get(db.get(&missing_key(i))?),
        Op::GetExisting(i) => Answer::Get(db.get(&existing_key(i))?),
        Op::Put(i) => {
            put(db, i)?;
            Answer::Put
        }
        Op::Scan(i) => {
            let iter = db.range(&existing_key(i), Some(&existing_key(i + SCAN_LEN)))?;
            Answer::Scan(iter.collect::<monkey_lsm::Result<Vec<_>>>()?)
        }
    })
}

/// Compares an answer with the generator's expectation, counting any
/// mismatch or error as a failure. Returns the entries a scan yielded.
fn check(op: Op, answer: monkey_lsm::Result<Answer>, pass: &mut Pass) -> u64 {
    let shape = |got: &Option<Bytes>| got.as_ref().map_or(0, |v| v.len() as u64 + 1);
    let (ok, entries, folded) = match (op, answer) {
        (_, Err(e)) => {
            fail(pass, format!("{op:?}: {e}"));
            (true, 0, u64::MAX)
        }
        (Op::GetMissing(_), Ok(Answer::Get(got))) => (got.is_none(), 0, shape(&got)),
        (Op::GetExisting(i), Ok(Answer::Get(got))) => {
            let ok = got.as_deref() == Some(&value_for(i)[..]);
            (ok, 0, shape(&got))
        }
        (Op::Put(_), Ok(Answer::Put)) => (true, 0, 0),
        (Op::Scan(i), Ok(Answer::Scan(rows))) => {
            let ok = rows.len() == SCAN_LEN as usize
                && (i..)
                    .zip(&rows)
                    .all(|(j, (k, v))| k[..] == existing_key(j) && v[..] == value_for(j));
            (ok, rows.len() as u64, rows.len() as u64)
        }
        _ => (false, 0, u64::MAX),
    };
    if !ok {
        fail(pass, format!("{op:?}: wrong answer"));
    }
    pass.digest = (pass.digest ^ folded).wrapping_mul(0x100_0000_01b3);
    entries
}

fn fail(pass: &mut Pass, what: String) {
    pass.failures += 1;
    pass.first_failure.get_or_insert(what);
}

fn classify(op: Op, d: &Counters) -> SpanKind {
    match op {
        Op::GetMissing(_) | Op::GetExisting(_) => {
            if d.key_hashes == 0 {
                SpanKind::GetMemtable
            } else if d.page_reads > 0 {
                SpanKind::GetBackend
            } else if d.cache_hits > 0 {
                SpanKind::GetCacheHit
            } else {
                SpanKind::GetRejected
            }
        }
        Op::Put(_) if d.flushes > 0 => SpanKind::PutFlush,
        Op::Put(_) => SpanKind::Put,
        Op::Scan(_) => SpanKind::Scan,
    }
}

fn stored_bytes(disk: &Disk) -> u64 {
    disk.list_runs()
        .into_iter()
        .map(|run| u64::from(disk.run_pages(run).unwrap_or(0)))
        .sum::<u64>()
        * PAGE_SIZE as u64
}

/// User bytes a pass's timed puts wrote.
pub fn user_bytes_put(pass: &Pass) -> u64 {
    pass.puts * ENTRY_BYTES as u64
}

/// Resident set size of this process, from `/proc/self/status`.
pub fn rss_bytes() -> u64 {
    proc_field("/proc/self/status", "VmRSS:") * 1024
}

/// Bytes this process has passed to write-family syscalls.
pub fn wchar_bytes() -> u64 {
    proc_field("/proc/self/io", "wchar:")
}

fn proc_field(path: &str, key: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// A per-pass store directory under the store root, removed afterwards.
struct StoreDir(PathBuf);

impl StoreDir {
    fn new(store_root: &Path) -> Result<Self, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = store_root.join(format!("store-{}-{n}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path).map_err(|e| format!("clear {}: {e}", path.display()))?;
        }
        Ok(Self(path))
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn remove(self) -> Result<(), String> {
        match std::fs::remove_dir_all(&self.0) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                Err(format!("remove {}: {e}", self.0.display()))
            }
            _ => Ok(()),
        }
    }
}
