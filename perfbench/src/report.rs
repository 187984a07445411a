//! Turns passes into the named metrics and the JSON lines the benchmark
//! prints.

use crate::bench::{user_bytes_put, Counters, Pass, PAGE_SIZE};
use crate::trace::{KindTotals, SpanKind};
use crate::workload::Workload;
use std::collections::BTreeMap;

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `values` (mean of the middle two for an even count).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]` of nanosecond samples, in µs.
pub fn percentile_us(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    let (_, nth, _) = v.select_nth_unstable(rank - 1);
    *nth as f64 / 1e3
}

/// Median over passes of a per-pass figure.
fn per_pass(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Latencies of the workload's read op: gets, or scans on `scan_fit`.
fn read_ns(workload: Workload, pass: &Pass) -> &[u64] {
    match workload {
        Workload::ScanFit => &pass.scan_ns,
        _ => &pass.get_ns,
    }
}

/// Bytes written to storage per user byte put during the timed phase. The
/// directory store counts every byte the process wrote (`wchar`), so the
/// WAL is included; the in-memory stores count written pages.
fn write_amp(workload: Workload, pass: &Pass) -> f64 {
    let written = match workload {
        Workload::WriteHeavy => pass.wchar,
        _ => pass.timed.page_writes * PAGE_SIZE as u64,
    };
    ratio(written as f64, user_bytes_put(pass) as f64)
}

/// The end-to-end metrics of untraced passes. Timings are medians over
/// passes; counter-derived figures repeat exactly from pass to pass.
pub fn end_to_end(workload: Workload, passes: &[Pass], live_bytes: u64) -> Vec<Metric> {
    let first = &passes[0];
    let read_ops: u64 = passes.iter().map(|p| p.gets + p.scans).sum();
    let read_pages: u64 = passes.iter().map(|p| p.read_op_page_reads).sum();
    vec![
        metric("setup_s", per_pass(passes, |p| p.setup_s), "s"),
        metric(
            "throughput_ops",
            per_pass(passes, Pass::throughput),
            "ops/s",
        ),
        metric(
            "read_p50_us",
            per_pass(passes, |p| percentile_us(read_ns(workload, p), 0.50)),
            "us",
        ),
        metric(
            "read_p99_us",
            per_pass(passes, |p| percentile_us(read_ns(workload, p), 0.99)),
            "us",
        ),
        metric(
            "put_p50_us",
            per_pass(passes, |p| percentile_us(&p.put_ns, 0.50)),
            "us",
        ),
        metric(
            "put_p99_us",
            per_pass(passes, |p| percentile_us(&p.put_ns, 0.99)),
            "us",
        ),
        metric(
            "read_ios",
            ratio(read_pages as f64, read_ops as f64),
            "pages/op",
        ),
        metric("write_amp", write_amp(workload, first), "x"),
        metric(
            "space_amp",
            ratio(first.stored_bytes as f64, live_bytes as f64),
            "x",
        ),
        metric("mem_mb", first.rss_growth as f64 / (1 << 20) as f64, "MiB"),
    ]
}

/// Figures kept off the result line: named by op kind, or defined only
/// where the sample supports them.
pub fn extras(passes: &[Pass]) -> Vec<Metric> {
    let mut out = Vec::new();
    let gets: u64 = passes.iter().map(|p| p.gets).sum();
    let scans: u64 = passes.iter().map(|p| p.scans).sum();
    if gets > 0 {
        out.push(metric(
            "get_p50_us",
            per_pass(passes, |p| percentile_us(&p.get_ns, 0.50)),
            "us",
        ));
        out.push(metric(
            "get_p99_us",
            per_pass(passes, |p| percentile_us(&p.get_ns, 0.99)),
            "us",
        ));
        out.push(metric(
            "get_ios",
            per_pass(passes, |p| {
                ratio(p.read_op_page_reads as f64, p.gets as f64)
            }),
            "pages/op",
        ));
    }
    if scans > 0 {
        out.push(metric(
            "scan_p50_us",
            per_pass(passes, |p| percentile_us(&p.scan_ns, 0.50)),
            "us",
        ));
        out.push(metric(
            "scan_p99_us",
            per_pass(passes, |p| percentile_us(&p.scan_ns, 0.99)),
            "us",
        ));
    }
    // p99.99 has ten samples beyond it only from 100k puts on.
    if passes.iter().all(|p| p.puts >= 100_000) {
        out.push(metric(
            "put_p9999_us",
            per_pass(passes, |p| percentile_us(&p.put_ns, 0.9999)),
            "us",
        ));
    }
    let attempted: u64 = passes.iter().map(Pass::ops).sum();
    let failed: u64 = passes.iter().map(|p| p.failures).sum();
    out.push(metric(
        "error_ratio",
        ratio(failed as f64, attempted as f64),
        "ratio",
    ));
    out
}

/// Sums over traced passes.
#[derive(Default)]
struct TraceTotals {
    kinds: BTreeMap<SpanKind, KindTotals>,
    classes: BTreeMap<SpanKind, Counters>,
    timed: Counters,
    timed_ns: f64,
    gets: u64,
    puts: u64,
    scans: u64,
    wchar: u64,
    zero_result_gets: u64,
    zero_result_false_positives: u64,
    scan_entries: u64,
    model_zero_result_ios: f64,
    passes: u64,
}

impl TraceTotals {
    fn of(traced: &[Pass]) -> Self {
        let mut t = Self::default();
        for p in traced {
            let tp = p.trace.as_ref().expect("traced pass carries a trace");
            for (kind, k) in &tp.spans.kinds {
                t.kinds.entry(*kind).or_default().add(k);
            }
            for (kind, c) in &tp.class_counters {
                t.classes.entry(*kind).or_default().add(c);
            }
            t.timed.add(&p.timed);
            t.timed_ns += p.timed_s * 1e9;
            t.gets += p.gets;
            t.puts += p.puts;
            t.scans += p.scans;
            t.wchar += p.wchar;
            t.zero_result_gets += tp.zero_result_gets;
            t.zero_result_false_positives += tp.zero_result_false_positives;
            t.scan_entries += tp.scan_entries;
            t.model_zero_result_ios += p.model_zero_result_ios;
            t.passes += 1;
        }
        t
    }

    fn kind(&self, kinds: &[SpanKind]) -> KindTotals {
        let mut out = KindTotals::default();
        for k in kinds.iter().filter_map(|k| self.kinds.get(k)) {
            out.add(k);
        }
        out
    }

    fn mean_us(&self, kinds: &[SpanKind]) -> f64 {
        let k = self.kind(kinds);
        ratio(k.total_ns as f64, k.count as f64) / 1e3
    }

    fn share_of_gets(&self, kind: SpanKind) -> f64 {
        ratio(self.kind(&[kind]).count as f64, self.gets as f64)
    }

    fn class(&self, kinds: &[SpanKind]) -> Counters {
        let mut out = Counters::default();
        for c in kinds.iter().filter_map(|k| self.classes.get(k)) {
            out.add(c);
        }
        out
    }

    fn per_pass(&self, total: f64) -> f64 {
        ratio(total, self.passes as f64)
    }
}

/// The per-layer metrics of traced passes; `plain` gives the untraced
/// throughput that `trace.overhead` compares against.
pub fn per_layer(plain: &[Pass], traced: &[Pass]) -> Vec<Metric> {
    use SpanKind::*;
    let t = TraceTotals::of(traced);
    let gets = t.gets as f64;
    let puts = t.puts as f64;
    let scans = t.scans as f64;
    let ops = gets + puts + scans;
    let all_gets = t.class(&SpanKind::GETS);
    let storage_read = t.kind(&[StorageRead]);
    let storage_write = t.kind(&[StorageWrite, StorageSeal]);
    let flush = t.kind(&[PutFlush]);
    let scan = t.kind(&[Scan]);
    let ops_ns: u64 = (t.kinds.iter())
        .filter(|(kind, _)| !kind.is_storage())
        .map(|(_, k)| k.total_ns)
        .sum();
    let lookups = t.timed.filter_negatives + t.timed.filter_false_positives;
    let cache_lookups = t.timed.cache_hits + t.timed.cache_misses;
    let wal_bytes = t
        .wchar
        .saturating_sub(t.timed.page_writes * PAGE_SIZE as u64);
    let traced_tput = per_pass(traced, Pass::throughput);
    let plain_tput = per_pass(plain, Pass::throughput);
    vec![
        metric("memtable.get_share", t.share_of_gets(GetMemtable), "ratio"),
        metric("memtable.get_us", t.mean_us(&[GetMemtable]), "us"),
        metric("memtable.put_us", t.mean_us(&[Put]), "us"),
        metric(
            "bloom.probes_per_get",
            ratio(t.timed.filter_probes as f64, gets),
            "probes",
        ),
        metric(
            "bloom.reject_get_share",
            t.share_of_gets(GetRejected),
            "ratio",
        ),
        metric("bloom.reject_get_us", t.mean_us(&[GetRejected]), "us"),
        metric(
            "bloom.fpr",
            ratio(t.timed.filter_false_positives as f64, lookups as f64),
            "ratio",
        ),
        metric(
            "bloom.zero_result_ios",
            ratio(
                t.zero_result_false_positives as f64,
                t.zero_result_gets as f64,
            ),
            "ios",
        ),
        metric(
            "model.zero_result_ios",
            t.per_pass(t.model_zero_result_ios),
            "ios",
        ),
        metric(
            "run.hit_get_us",
            t.mean_us(&[GetCacheHit, GetBackend]),
            "us",
        ),
        metric(
            "run.pages_per_get",
            ratio((all_gets.page_reads + all_gets.cache_hits) as f64, gets),
            "pages",
        ),
        metric(
            "cache.hit_ratio",
            ratio(t.timed.cache_hits as f64, cache_lookups as f64),
            "ratio",
        ),
        metric("cache.miss_get_us", t.mean_us(&[GetBackend]), "us"),
        metric(
            "storage.read_us",
            ratio(storage_read.total_ns as f64, storage_read.pages as f64) / 1e3,
            "us/page",
        ),
        metric(
            "storage.write_us",
            ratio(storage_write.total_ns as f64, storage_write.pages as f64) / 1e3,
            "us/page",
        ),
        metric(
            "storage.reads_per_op",
            ratio(t.timed.page_reads as f64, ops),
            "pages",
        ),
        metric(
            "storage.seeks_per_op",
            ratio(t.timed.seeks as f64, ops),
            "seeks",
        ),
        metric(
            "storage.pages_written_per_put",
            ratio(t.timed.page_writes as f64, puts),
            "pages",
        ),
        metric(
            "compaction.flush_puts",
            t.per_pass(flush.count as f64),
            "count",
        ),
        metric(
            "compaction.merges",
            t.per_pass(t.timed.merges as f64),
            "count",
        ),
        metric(
            "compaction.flush_put_ms",
            ratio(flush.total_ns as f64, flush.count as f64) / 1e6,
            "ms",
        ),
        metric(
            "compaction.busy_share",
            ratio(flush.total_ns as f64, t.timed_ns),
            "ratio",
        ),
        metric(
            "compaction.rewritten_per_put",
            ratio(t.timed.entries_rewritten as f64, puts),
            "entries",
        ),
        metric(
            "wal.commits_per_put",
            ratio(t.timed.wal_group_commits as f64, puts),
            "commits",
        ),
        metric("wal.syncs", t.per_pass(t.timed.wal_syncs as f64), "count"),
        metric("wal.bytes_per_put", ratio(wal_bytes as f64, puts), "B"),
        metric(
            "iter.entries_per_scan",
            ratio(t.scan_entries as f64, scans),
            "entries",
        ),
        metric(
            "iter.entry_ns",
            ratio(scan.total_ns as f64, t.scan_entries as f64),
            "ns",
        ),
        metric(
            "iter.seeks_per_scan",
            ratio(t.class(&[Scan]).seeks as f64, scans),
            "seeks",
        ),
        metric(
            "trace.overhead",
            ratio(traced_tput, plain_tput) - 1.0,
            "ratio",
        ),
        metric(
            "trace.unattributed_share",
            1.0 - ratio(ops_ns as f64, t.timed_ns),
            "ratio",
        ),
    ]
}

/// `{"<kind>": {"count", "total_us", "self_us", "pages"}, ...}`
fn kinds_json(kinds: &BTreeMap<SpanKind, KindTotals>) -> Json {
    kinds.iter().fold(Json::default(), |j, (kind, k)| {
        let totals = Json::default()
            .int("count", k.count)
            .num("total_us", k.total_ns as f64 / 1e3)
            .num("self_us", k.self_ns as f64 / 1e3)
            .int("pages", k.pages);
        j.obj(kind.name(), totals)
    })
}

/// The traced passes' spans: totals and self time per kind, and the five
/// slowest ops (keyed by rank) with the storage calls inside them.
pub fn spans_json(traced: &[Pass]) -> Json {
    let mut slowest: Vec<_> = traced
        .iter()
        .filter_map(|p| p.trace.as_ref())
        .flat_map(|t| &t.spans.slowest)
        .collect();
    slowest.sort_by_key(|(span, _)| std::cmp::Reverse(span.dur_ns));
    let slowest =
        slowest
            .iter()
            .take(5)
            .enumerate()
            .fold(Json::default(), |j, (rank, (span, children))| {
                let op = Json::default()
                    .str("kind", span.kind.name())
                    .num("us", span.dur_ns as f64 / 1e3)
                    .obj("children", kinds_json(children));
                j.obj(&rank.to_string(), op)
            });
    Json::default()
        .obj("spans", kinds_json(&TraceTotals::of(traced).kinds))
        .obj("slowest_ops", slowest)
}

/// A JSON object written field by field.
#[derive(Default)]
pub struct Json(Vec<String>);

impl Json {
    pub fn num(mut self, key: &str, value: f64) -> Self {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(format!("{}:{value}", quote(key)));
        self
    }

    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.0.push(format!("{}:{value}", quote(key)));
        self
    }

    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.0.push(format!("{}:{value}", quote(key)));
        self
    }

    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.0.push(format!("{}:{}", quote(key), quote(value)));
        self
    }

    pub fn obj(mut self, key: &str, value: Json) -> Self {
        self.0.push(format!("{}:{}", quote(key), value.finish()));
        self
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.0.join(","))
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`
pub fn metrics_json(metrics: &[Metric]) -> Json {
    metrics.iter().fold(Json::default(), |j, m| {
        j.obj(
            m.name,
            Json::default().num("value", m.value).str("unit", m.unit),
        )
    })
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
