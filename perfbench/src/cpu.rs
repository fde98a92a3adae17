//! The clocks behind the gated timings: process CPU time, and the
//! host-speed probe that scales it.
//!
//! On a shared virtual machine the wall time of identical work drifts by
//! 10–50% in phases lasting seconds to minutes, much of it because
//! neighbours take vCPU time (hypervisor steal, run-queue waits). Linux
//! does not count that time as this process's CPU time, so the gated
//! timings are CPU time; the wall figures go on the `results` line.

use crate::{m, median, Metric};
use std::hint::black_box;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec and both clock ids exist
    // on every Linux the benchmark runs on.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU seconds this process has used so far, all threads together
/// (threads that have exited included).
pub fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Wall and CPU seconds of repeated set-ups.
#[derive(Default)]
pub struct Setups {
    pub wall: Vec<f64>,
    pub cpu: Vec<f64>,
}

impl Setups {
    /// Runs and times one set-up.
    pub fn time<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let (t, c) = (Instant::now(), process_cpu_s());
        let out = f()?;
        self.cpu.push(process_cpu_s() - c);
        self.wall.push(t.elapsed().as_secs_f64());
        Ok(out)
    }

    pub fn extend(&mut self, other: Setups) {
        self.wall.extend(other.wall);
        self.cpu.extend(other.cpu);
    }

    /// The set-up figures for the `results` line.
    pub fn results(&self) -> Vec<Metric> {
        vec![
            m("setups", self.cpu.len() as f64, "count"),
            m("raw_setup_s", median(&self.cpu), "s"),
            m("setup_wall_s", median(&self.wall), "s"),
        ]
    }
}

/// The probe's median CPU time on the reference machine (README,
/// reference figures), s.
pub const REF_PROBE_S: f64 = 9.0e-3;

/// Entries of the pointer-chase ring: 8 MiB, past the caches a core has
/// to itself.
const RING: usize = 2 << 20;

/// The host-speed probe. CPU time still counts the neighbours' pull on
/// the core (shared caches, memory bandwidth, a busy sibling thread),
/// which moved whole runs' figures by 10–25%. A run times this fixed
/// kernel of the benchmark's own between its work items and scales the
/// gated CPU figures by [`REF_PROBE_S`] over the kernel's median, so they
/// read as CPU time at the reference machine's speed. The kernel does a
/// little of what the program does — small dense products through
/// `tanh`, allocation churn, dependent loads over a buffer larger than a
/// core's caches — and no change to the program moves it.
#[derive(Default)]
pub struct HostProbe {
    /// A single-cycle permutation of `0..RING`, built on first use.
    ring: Vec<u32>,
    slices: Vec<f64>,
}

impl HostProbe {
    /// Times one run of the kernel on the calling thread.
    pub fn sample(&mut self) {
        if self.ring.is_empty() {
            // Sattolo's shuffle: one cycle through every entry.
            self.ring = (0..RING as u32).collect();
            let mut s = 99u64;
            for i in (1..RING).rev() {
                s = lcg(s);
                self.ring.swap(i, (s >> 33) as usize % i);
            }
        }
        let t = clock_s(CLOCK_THREAD_CPUTIME_ID);
        const N: usize = 40;
        let a: Vec<f64> = (0..N * N)
            .map(|i| ((i * 7919 % 1009) as f64) / 1009.0 - 0.5)
            .collect();
        let mut x = vec![0.1; N];
        for _ in 0..600 {
            x = a
                .chunks_exact(N)
                .map(|r| r.iter().zip(&x).map(|(p, q)| p * q).sum::<f64>().tanh())
                .collect();
        }
        black_box(&x);
        let mut live: Vec<Vec<f64>> = Vec::new();
        let mut s = 12345u64;
        for i in 0..6000 {
            s = lcg(s);
            live.push(vec![i as f64; 8 + (s >> 55) as usize * 4]);
            if live.len() > 64 {
                live.swap_remove((s >> 40) as usize % live.len());
            }
        }
        black_box(&live);
        drop(live);
        let mut k = 0u32;
        for _ in 0..40_000 {
            k = self.ring[k as usize];
        }
        black_box(k);
        self.slices.push(clock_s(CLOCK_THREAD_CPUTIME_ID) - t);
    }

    /// Median kernel CPU time, s.
    pub fn median_s(&self) -> f64 {
        median(&self.slices)
    }

    /// Factor from this run's CPU seconds to the reference machine's.
    pub fn scale(&self) -> f64 {
        REF_PROBE_S / self.median_s()
    }

    pub fn extend(&mut self, other: HostProbe) {
        self.slices.extend(other.slices);
    }

    /// The probe figures for the `results` line.
    pub fn results(&self) -> Vec<Metric> {
        vec![
            m("host.probes", self.slices.len() as f64, "count"),
            m("host.probe_ms", self.median_s() * 1e3, "ms"),
            m("host.scale", self.scale(), "ratio"),
        ]
    }
}

fn lcg(s: u64) -> u64 {
    s.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}
