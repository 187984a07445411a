//! Reduced-size runs of every workload: one seed gives identical counters
//! and answers, another seed gives another op stream, and a traced pass
//! ends with exactly the counters of an untraced one.

use monkey_workload::KeySpace;
use perfbench::bench::run_pass;
use perfbench::workload::{existing_key, missing_key, value_for, Inputs, Workload};
use std::path::PathBuf;

const ENTRIES: u64 = 20_000;
// Enough puts on every workload for the timed phase to flush.
const OPS: usize = 100_000;

fn store_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn keys_and_values_match_the_workload_generator() {
    let space = KeySpace::with_entry_size(ENTRIES, 128);
    for i in [0u32, 1, 7, 12_345, ENTRIES as u32 - 1] {
        assert_eq!(existing_key(i)[..], space.existing_key(u64::from(i))[..]);
        assert_eq!(missing_key(i)[..], space.missing_key(u64::from(i))[..]);
        assert_eq!(value_for(i)[..], space.value_for(u64::from(i))[..]);
    }
}

#[test]
fn one_seed_repeats_every_counter_and_answer() {
    for workload in Workload::ALL {
        let inputs = Inputs::generate_sized(workload, 7, ENTRIES, OPS);
        let dir = store_root(&format!("repeat-{}", workload.name()));
        let a = run_pass(&inputs, false, &dir).unwrap();
        let b = run_pass(&inputs, false, &dir).unwrap();
        assert_eq!(a.failures, 0, "{}: {:?}", workload.name(), a.first_failure);
        assert_eq!(a.end, b.end, "{}", workload.name());
        assert_eq!(a.timed, b.timed, "{}", workload.name());
        assert_eq!(a.digest, b.digest, "{}", workload.name());
        assert_eq!(a.stored_bytes, b.stored_bytes, "{}", workload.name());
        assert_eq!(
            a.read_op_page_reads,
            b.read_op_page_reads,
            "{}",
            workload.name()
        );
        assert!(
            a.timed.flushes > 0,
            "{}: the timed phase must flush",
            workload.name()
        );
    }
}

#[test]
fn another_seed_gives_another_op_stream() {
    for workload in Workload::ALL {
        let a = Inputs::generate_sized(workload, 7, ENTRIES, OPS);
        let b = Inputs::generate_sized(workload, 8, ENTRIES, OPS);
        let again = Inputs::generate_sized(workload, 7, ENTRIES, OPS);
        assert_eq!(a.ops, again.ops);
        assert_eq!(a.load_order, again.load_order);
        assert_ne!(a.ops, b.ops, "{}", workload.name());
        assert_ne!(a.load_order, b.load_order, "{}", workload.name());
    }
}

#[test]
fn traced_run_counters_equal_untraced() {
    for workload in Workload::ALL {
        let inputs = Inputs::generate_sized(workload, 11, ENTRIES, OPS);
        let dir = store_root(&format!("parity-{}", workload.name()));
        let run = perfbench::run(&inputs, 0.0, true, &dir).unwrap();
        assert_eq!(run.parity_error, None, "{}", workload.name());
        assert!(run.passes().all(|p| p.failures == 0), "{}", workload.name());
        let traced = run.traced[0].trace.as_ref().unwrap();
        let classified: u64 = traced.class_counters.values().map(|c| c.key_hashes).sum();
        assert_eq!(
            classified,
            run.traced[0].timed.key_hashes,
            "{}",
            workload.name()
        );
    }
}
