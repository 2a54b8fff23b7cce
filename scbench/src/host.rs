//! Host speed reference: a fixed kernel, owned by the benchmark, timed
//! before and after every round so host-time metrics can be reported at
//! one nominal host speed.
//!
//! The reference host (2 vCPUs of a KVM guest) changes speed in steps
//! that last seconds to tens of minutes, by up to 4×, with identical
//! work, and within a phase its speed wanders from round to round.
//! Rounds of identical work cannot average a step away when it lasts
//! longer than a run. So each round is bracketed by two windows of
//! back-to-back kernel calls, together a tenth of the round's length, on
//! as many threads as the workload uses; the mean call time over both
//! windows measures how fast the host ran around the round. A round's host times are scaled by `NOMINAL_S / measured`: a
//! slow phase makes both the round and the kernel slower, and the ratio
//! cancels most of it. The kernel calls no library crate, so no change to
//! the program under test can move it.
//!
//! The kernel is general-purpose code of the kind the simulators run — a
//! binary-heap event queue, an ordered map and many short-lived small
//! vectors. Over six runs of `accel-infer` in one slow phase of the
//! reference host, scaling by it left a spread of 0.054 in the rate,
//! against 0.150 when scaled by a compute kernel (table loads, popcount,
//! `f32` dot products) and 0.221 unscaled; on `serve-storm` both kernels
//! left 0.044 of 0.148.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Mean time of one kernel call that host times are scaled to, s: a
/// fixed scale, near the call time on the reference host at full speed.
pub const NOMINAL_S: f64 = 500e-6;

/// Share of a round's length spent timing the kernel around it.
pub const SHARE: f64 = 0.1;
/// Bounds of the two windows' total length, s.
pub const MIN_WINDOW_S: f64 = 0.02;
pub const MAX_WINDOW_S: f64 = 0.5;

/// Events in the kernel's queue and map.
const EVENTS: u64 = 2048;

fn split_mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One call of the kernel: pop and re-push events on a heap, fill and
/// drain an ordered map, and build short vectors. The result only keeps
/// the work alive.
fn kernel(salt: u64) -> u64 {
    let mut queue: BinaryHeap<(u64, u32)> =
        (0..EVENTS).map(|i| (split_mix(i ^ salt) >> 40, i as u32)).collect();
    let mut t = 0u64;
    for i in 0..2 * EVENTS {
        let (at, id) = queue.pop().expect("queue is never empty");
        t = t.wrapping_add(at);
        queue.push((at + (split_mix(i) >> 44), id));
    }
    let mut map = BTreeMap::new();
    for i in 0..EVENTS {
        map.insert(split_mix(i ^ salt) >> 32, i);
    }
    for i in 0..EVENTS {
        t = t.wrapping_add(map.remove(&(split_mix(i ^ salt) >> 32)).unwrap_or(0));
    }
    for i in 0..EVENTS {
        let v: Vec<u64> = (0..8 + i % 64).map(|j| j ^ salt).collect();
        t = t.wrapping_add(black_box(&v)[v.len() - 1]);
    }
    t
}

/// Mean call time over `window_s` of back-to-back calls on one thread
/// (at least one call), s.
fn mean_call(window_s: f64) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        black_box(kernel(black_box(calls)));
        calls += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= window_s {
            return elapsed / calls as f64;
        }
    }
}

/// Times the kernel for `window_s` on `threads` threads at once and
/// returns the mean of their mean call times, s.
pub fn reference_s(threads: usize, window_s: f64) -> f64 {
    if threads <= 1 {
        return mean_call(window_s);
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(|| mean_call(window_s))).collect();
        handles.into_iter().map(|h| h.join().expect("reference thread")).collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_time_is_positive_at_one_and_two_threads() {
        for threads in [1, 2] {
            let t = reference_s(threads, 0.001);
            assert!(t > 0.0 && t.is_finite(), "{threads} threads: {t}");
        }
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(7), kernel(7));
    }
}
