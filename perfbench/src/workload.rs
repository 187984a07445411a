//! The three workloads and their seeded op streams.
//!
//! Every store holds `entries` entries of 16-byte keys and 112-byte values
//! (250k × 128 B = 32 MiB in the full-size benchmark). Existing keys sit at
//! the even indices of `monkey-workload`'s key space and missing keys at the
//! odd ones, so a zero-result lookup falls inside every run's fence range
//! and reaches the filters. Puts overwrite existing keys with their
//! generator value, so every get's expected answer is fixed in advance:
//! `value_for(i)` for an existing key, absence for a missing one.

use monkey_workload::{KeySpace, ZipfianSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bytes of a key, as `monkey-workload`'s `KeySpace` makes them.
pub const KEY_LEN: usize = 16;
/// Bytes of a value.
pub const VALUE_LEN: usize = ENTRY_BYTES - KEY_LEN;
/// Entries loaded into every full-size store.
pub const ENTRIES: u64 = 250_000;
/// Key plus value bytes of one entry.
pub const ENTRY_BYTES: usize = 128;
/// Consecutive existing keys one range scan returns.
pub const SCAN_LEN: u32 = 100;
/// Skew of the existing-key gets of `point_read`.
pub const ZIPF_THETA: f64 = 0.99;

/// One benchmark workload: a store configuration plus a timed op mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 45% zero-result gets, 45% Zipfian existing-key gets, 10% puts, on
    /// an in-memory store whose data is 8× its 4 MiB block cache.
    PointRead,
    /// 90% puts, 10% uniform existing-key gets, on a directory store with
    /// a WAL and no block cache.
    WriteHeavy,
    /// 90% 100-key range scans, 10% puts, on an in-memory store whose data
    /// fits in its 64 MiB block cache.
    ScanFit,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Self::PointRead, Self::WriteHeavy, Self::ScanFit];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::PointRead => "point_read",
            Self::WriteHeavy => "write_heavy",
            Self::ScanFit => "scan_fit",
        }
    }

    /// Block-cache bytes of an in-memory store; `None` for the directory
    /// store, which reads through `pread` with no cache.
    pub fn cache_bytes(self) -> Option<usize> {
        match self {
            Self::PointRead => Some(4 << 20),
            Self::WriteHeavy => None,
            Self::ScanFit => Some(64 << 20),
        }
    }

    /// Timed ops of one full-size pass. Each pass runs on a fresh store,
    /// so a fixed count keeps every counter identical from pass to pass;
    /// the counts give a pass of two to four seconds with at least one
    /// inline flush.
    pub fn ops_per_pass(self) -> usize {
        match self {
            Self::PointRead => 600_000,
            Self::WriteHeavy => 400_000,
            Self::ScanFit => 100_000,
        }
    }
}

/// One timed operation; the payload is an index into the key space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Get of a missing key: the answer must be absence.
    GetMissing(u32),
    /// Get of an existing key: the answer must be `value_for(i)`.
    GetExisting(u32),
    /// Overwrite of an existing key with `value_for(i)`.
    Put(u32),
    /// Scan of `[key(i), key(i + SCAN_LEN))`: exactly `SCAN_LEN` entries.
    Scan(u32),
}

/// Everything a run needs, generated before the first store opens.
pub struct Inputs {
    pub workload: Workload,
    pub entries: u64,
    /// Insertion order of the load phase (a permutation of `0..entries`).
    pub load_order: Vec<u32>,
    pub ops: Vec<Op>,
}

impl Inputs {
    /// Full-size inputs for `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        Self::generate_sized(workload, seed, ENTRIES, workload.ops_per_pass())
    }

    /// Inputs of a given size; the same `(workload, seed, entries, ops)`
    /// always gives the same inputs.
    pub fn generate_sized(workload: Workload, seed: u64, entries: u64, ops: usize) -> Self {
        assert!(entries > u64::from(SCAN_LEN), "store too small for a scan");
        let space = KeySpace::with_entry_size(entries, ENTRY_BYTES);
        let mut rng = StdRng::seed_from_u64(seed);
        let load_order = to_u32(space.shuffled_indices(&mut rng));
        let n = entries as u32;
        let ops = match workload {
            Workload::PointRead => {
                // Zipf ranks map to keys through a seeded permutation, so
                // the hot keys are scattered over the key range.
                let rank_to_key = to_u32(space.shuffled_indices(&mut rng));
                let zipf = ZipfianSampler::new(entries, ZIPF_THETA);
                (0..ops)
                    .map(|_| {
                        let u: f64 = rng.gen();
                        if u < 0.45 {
                            Op::GetMissing(rng.gen_range(0..n))
                        } else if u < 0.90 {
                            Op::GetExisting(rank_to_key[zipf.sample(&mut rng) as usize])
                        } else {
                            Op::Put(rng.gen_range(0..n))
                        }
                    })
                    .collect()
            }
            Workload::WriteHeavy => (0..ops)
                .map(|_| {
                    if rng.gen::<f64>() < 0.90 {
                        Op::Put(rng.gen_range(0..n))
                    } else {
                        Op::GetExisting(rng.gen_range(0..n))
                    }
                })
                .collect(),
            Workload::ScanFit => (0..ops)
                .map(|_| {
                    if rng.gen::<f64>() < 0.90 {
                        Op::Scan(rng.gen_range(0..n - SCAN_LEN))
                    } else {
                        Op::Put(rng.gen_range(0..n))
                    }
                })
                .collect(),
        };
        Self {
            workload,
            entries,
            load_order,
            ops,
        }
    }

    /// Bytes of user data the store holds once loaded.
    pub fn live_bytes(&self) -> u64 {
        self.entries * ENTRY_BYTES as u64
    }
}

/// Key and value bytes are rebuilt on the stack for every op: holding
/// every key and value of the store as separate allocations would add a
/// second random-access working set the size of the store to each op.
/// They equal `KeySpace::existing_key(i)`, `missing_key(i)` and
/// `value_for(i)`.
fn digits(index: u64, out: &mut [u8]) {
    let mut n = index;
    for b in out.iter_mut().rev() {
        *b = b'0' + (n % 10) as u8;
        n /= 10;
    }
}

/// The `i`-th existing key.
pub fn existing_key(i: u32) -> [u8; KEY_LEN] {
    let mut key = [0; KEY_LEN];
    digits(2 * u64::from(i), &mut key);
    key
}

/// The `i`-th missing key, between existing keys `i` and `i + 1`.
pub fn missing_key(i: u32) -> [u8; KEY_LEN] {
    let mut key = [0; KEY_LEN];
    digits(2 * u64::from(i) + 1, &mut key);
    key
}

/// The value of the `i`-th existing key.
pub fn value_for(i: u32) -> [u8; VALUE_LEN] {
    let mut value = [b'.'; VALUE_LEN];
    value[0] = b'v';
    digits(u64::from(i), &mut value[1..17]);
    value
}

fn to_u32(indices: Vec<u64>) -> Vec<u32> {
    indices
        .into_iter()
        .map(|i| u32::try_from(i).expect("key index fits in u32"))
        .collect()
}
