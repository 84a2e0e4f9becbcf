//! Host-speed calibration. A shared host runs in speed modes, about 1.6×
//! apart on the reference host, that switch every few seconds to minutes
//! and slow all code on it down or speed it up together. How much of a run
//! falls in each mode decides its raw figures. The benchmark therefore
//! times a fixed probe next to the program under test and reports host
//! time scaled to the probe's reference speed, so that runs made in
//! different modes agree while a change in the program still moves the
//! figures as much as it moves the raw times.
//!
//! The probe is code of the benchmark, independent of the crates under
//! test: it does the same work in every run and in every checkout. It
//! mixes what the simulator spends its time on — binary-heap event
//! scheduling, data-dependent loads and stores, and integer mixing. Its
//! data fits in a core's L2 cache: with a table the size of the last-level
//! cache the probe follows other tenants' memory traffic, which moves a
//! warm solve far less (on the reference host a 4 MiB table's median swung
//! 1.6× between runs whose solve times agreed within 5%). Each sample first
//! streams the table once, untimed, so that what the program left in the
//! caches does not change the timed pass.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use crate::inputs::splitmix;
use crate::trace::Samples;

/// Words in the probe's table: 256 KiB.
const TABLE_WORDS: usize = 1 << 15;
/// Events kept pending in the probe's heap.
const PENDING: usize = 4096;
/// Heap events per sample.
const EVENTS: usize = 40_000;
/// One sample on the reference host (the 2-CPU host the benchmark's notes
/// were measured on, in its slow mode), in ms.
pub const REFERENCE_MS: f64 = 4.4;
/// How much more than the probe a solve slows down when the host changes
/// mode: scaling multiplies a host time by `(REFERENCE_MS / probe time)`
/// to this power. Fitted on the reference host over runs in both modes,
/// probe sample against solve latency: at 1 the scaled latencies still
/// moved 8–14% with the mode on `ingest-wide` and `shard-4dev`, at 1.5
/// their run-to-run spread was lowest on all three single-threaded
/// workloads (3–7%).
pub const ELASTICITY: f64 = 1.5;

/// Probe samples of one run.
pub struct HostSpeed {
    table: Vec<u64>,
    samples_ms: Samples,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed {
            table: (0..TABLE_WORDS as u64).collect(),
            samples_ms: Samples::default(),
        }
    }
}

impl HostSpeed {
    /// The probe's work; returns a checksum so it cannot be elided.
    fn pass(&mut self) -> u64 {
        let mut state = 0x5eed_ca11_b7a7_e000;
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..PENDING as u32)
            .map(|w| Reverse((splitmix(&mut state) & 0xff, w)))
            .collect();
        let mut sum = 0u64;
        for _ in 0..EVENTS {
            let Reverse((t, w)) = heap.pop().expect("the heap stays full");
            let h = splitmix(&mut state);
            let slot = (h as usize ^ w as usize) & (TABLE_WORDS - 1);
            let v = self.table[slot];
            self.table[slot] = v.wrapping_add(t);
            sum = sum.wrapping_add(v);
            heap.push(Reverse((t + 1 + (h >> 56), w)));
        }
        sum
    }

    /// Takes one sample (about 4 ms), records it and returns it in ms.
    pub fn sample(&mut self) -> f64 {
        black_box(self.table.iter().fold(0u64, |a, &v| a ^ v));
        let t0 = Instant::now();
        black_box(self.pass());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        ms
    }

    /// Takes `n` samples on each of `threads` threads at once and records
    /// them all: the speed of every CPU a multi-threaded workload runs on.
    pub fn sample_parallel(&mut self, threads: usize, n: usize) {
        let mut others: Vec<HostSpeed> = (1..threads).map(|_| HostSpeed::default()).collect();
        std::thread::scope(|scope| {
            for other in &mut others {
                scope.spawn(move || {
                    for _ in 0..n {
                        other.sample();
                    }
                });
            }
            for _ in 0..n {
                self.sample();
            }
        });
        for other in others {
            self.samples_ms.extend(other.samples_ms);
        }
    }

    /// The factor that scales host time measured next to a probe time of
    /// `probe_ms` to the reference speed.
    fn factor(probe_ms: f64) -> f64 {
        (REFERENCE_MS / probe_ms).powf(ELASTICITY)
    }

    /// `ms` of host time measured between two probe samples, scaled to the
    /// reference speed.
    pub fn bracket(ms: f64, before: f64, after: f64) -> f64 {
        ms * Self::factor(0.5 * (before + after))
    }

    /// Median probe sample in ms.
    pub fn median_ms(&self) -> f64 {
        self.samples_ms.median()
    }

    /// The factor that scales a figure measured over the whole run to the
    /// reference speed, from the median sample.
    pub fn scale(&self) -> f64 {
        Self::factor(self.median_ms())
    }

    pub fn note(&self, notes: &mut Vec<String>) {
        notes.push(format!(
            "host speed over {} probe samples: p10={:.3} median={:.3} p90={:.3} ms (reference {REFERENCE_MS} ms, elasticity {ELASTICITY}), scale {:.4}",
            self.samples_ms.len(),
            self.samples_ms.percentile(0.1),
            self.median_ms(),
            self.samples_ms.percentile(0.9),
            self.scale()
        ));
    }
}
