//! Host-speed calibration.
//!
//! On a shared virtual machine the same call's wall time drifts by
//! ±20 % in episodes of tens of seconds, whatever the benchmark does.
//! A fixed kernel of the benchmark's own, timed once after every call,
//! drifts with it: it does the same kinds of work as the simulator's hot
//! path (hashed lookups of wide keys, copies of small records, decimal
//! formatting) over a table of about one and a half megabytes. The
//! kernel shares no state with the simulator that a change to it could
//! alter: it never allocates, and each pass first streams through an
//! eviction buffer larger than a core's private caches, so the table
//! always starts out of them whatever the call before it touched (with
//! the table cached, the kernel tracks the host far worse). Scaling a
//! run's times by `REFERENCE_S / calibration` reports them at one fixed
//! host speed, which keeps the drift out of the comparison between runs.
//! The kernel never calls into `lumen`, so a faster simulator still
//! reads faster.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Calibration time of the reference host state, seconds (a 2-vCPU
/// Xeon virtual machine, release build). Reported times are scaled to
/// this speed.
pub const REFERENCE_S: f64 = 0.0017;

/// Entries of the kernel's table.
const ENTRIES: usize = 4096;
/// Lookups per calibration.
const LOOKUPS: usize = 6000;
/// Bytes of the eviction buffer: above the private caches of the cores
/// this runs on (2 MiB of L2 per core on the reference host).
const EVICT_BYTES: usize = 8 << 20;

type Table = (HashMap<[u64; 8], [u64; 32]>, Vec<[u64; 8]>);

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut x = 0x5EED_u64;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 27)
        };
        let keys: Vec<[u64; 8]> = (0..ENTRIES)
            .map(|_| std::array::from_fn(|_| next()))
            .collect();
        let map = keys
            .iter()
            .map(|k| (*k, std::array::from_fn(|_| next())))
            .collect();
        (map, keys)
    })
}

/// Pushes the kernel's table out of the core's private caches by
/// reading one byte of every cache line of a larger buffer.
fn evict() {
    static BUFFER: OnceLock<Vec<u8>> = OnceLock::new();
    let buffer = BUFFER.get_or_init(|| (0..EVICT_BYTES).map(|i| i as u8).collect());
    let sum = buffer
        .iter()
        .step_by(64)
        .fold(0u8, |acc, &b| acc.wrapping_add(b));
    black_box(sum);
}

/// Times one pass of the calibration kernel, seconds.
pub fn calibrate() -> f64 {
    let (map, keys) = table();
    evict();
    let t = Instant::now();
    let mut acc = 0u64;
    let mut record = [0u64; 32];
    let mut digits = [0u8; 20];
    for i in 0..LOOKUPS {
        let key = &keys[(i * 2_654_435_761) % ENTRIES];
        if let Some(value) = map.get(black_box(key)) {
            record.copy_from_slice(value);
        }
        let (mut n, mut len) = (i, 0);
        loop {
            digits[len] = b'0' + (n % 10) as u8;
            len += 1;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        acc = acc
            .wrapping_add(record[i % record.len()])
            .wrapping_add(black_box(&digits[..len]).len() as u64);
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}
