//! Seeded end-to-end benchmark of the Monkey LSM engine.
//!
//! A single closed-loop client runs a pre-generated op stream against a
//! fresh store per pass; every answer is checked. An untraced run reports
//! the end-to-end metrics; a traced run times the calls into each layer
//! from this crate's side and reports the per-layer metrics. See README.md.

pub mod bench;
pub mod report;
pub mod trace;
pub mod workload;

use bench::{run_pass, Counters, Pass};
use report::percentile_us;
use std::path::Path;
use workload::Inputs;

/// Passes every run makes at least (per kind, in a traced run), so that
/// set-up time and every timing is a median over several stores.
pub const MIN_PASSES: usize = 3;

/// The passes of one run.
pub struct Run {
    pub plain: Vec<Pass>,
    pub traced: Vec<Pass>,
    /// Set when a pass ends with other counters than the first one did.
    pub parity_error: Option<String>,
}

impl Run {
    pub fn passes(&self) -> impl Iterator<Item = &Pass> {
        self.plain.iter().chain(&self.traced)
    }
}

/// Runs passes until their timed phases add up to `seconds`. A traced run
/// alternates untraced and traced passes. Every pass, traced or not, must
/// end with exactly the counters of the first one.
pub fn run(inputs: &Inputs, seconds: f64, traced: bool, store_root: &Path) -> Result<Run, String> {
    let mut run = Run {
        plain: Vec::new(),
        traced: Vec::new(),
        parity_error: None,
    };
    let mut timed = 0.0;
    while timed < seconds
        || run.plain.len() < MIN_PASSES
        || (traced && run.traced.len() < MIN_PASSES)
    {
        let trace_this = traced && run.traced.len() < run.plain.len();
        let pass = run_pass(inputs, trace_this, store_root)?;
        timed += pass.timed_s;
        eprintln!(
            "perfbench: pass {} ({}): setup {:.3} s, {} ops in {:.3} s, {:.0} ops/s, \
             p50 get {:.3} us, scan {:.3} us, put {:.3} us",
            run.plain.len() + run.traced.len() + 1,
            if trace_this { "traced" } else { "untraced" },
            pass.setup_s,
            pass.ops(),
            pass.timed_s,
            pass.throughput(),
            percentile_us(&pass.get_ns, 0.5),
            percentile_us(&pass.scan_ns, 0.5),
            percentile_us(&pass.put_ns, 0.5),
        );
        if let (Some(first), None) = (run.plain.first(), &run.parity_error) {
            run.parity_error = parity(&first.end, &pass.end);
        }
        if trace_this {
            run.traced.push(pass);
        } else {
            run.plain.push(pass);
        }
    }
    Ok(run)
}

fn parity(first: &Counters, pass: &Counters) -> Option<String> {
    (first != pass)
        .then(|| format!("pass counters {pass:?} differ from the first pass's {first:?}"))
}
