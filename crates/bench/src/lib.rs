//! Shared infrastructure for the ASDEX experiment harnesses.
//!
//! Every table and figure of the paper has a `harness = false` bench
//! target in this crate; `cargo bench --workspace` regenerates them all.
//! This library provides the common pieces: run-count scaling (`--full`
//! for paper-scale repetition counts), statistics, table printing, and
//! CSV output under the workspace root's `bench_results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::Path;

/// How many repetitions to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// Runs for cheap agents (ours, BO, random). Paper: 100.
    pub many: usize,
    /// Runs for expensive agents (model-free RL). Paper: 10.
    pub few: usize,
    /// `true` when `--full` (paper-scale counts) was requested.
    pub full: bool,
}

impl RunScale {
    /// Parses the scale from CLI args / `ASDEX_FULL`: default is a
    /// laptop-scale fraction of the paper's counts; `--full` restores
    /// them.
    pub fn from_env() -> Self {
        let full = std::env::args().any(|a| a == "--full")
            || std::env::var("ASDEX_FULL").map(|v| v == "1").unwrap_or(false);
        let mut scale = if full {
            RunScale { many: 100, few: 10, full: true }
        } else {
            RunScale { many: 20, few: 3, full: false }
        };
        // Explicit overrides for smoke tests and CI.
        if let Ok(v) = std::env::var("ASDEX_RUNS") {
            if let Ok(n) = v.parse() {
                scale.many = n;
            }
        }
        if let Ok(v) = std::env::var("ASDEX_RUNS_FEW") {
            if let Ok(n) = v.parse() {
                scale.few = n;
            }
        }
        scale
    }
}

/// Parses the evaluation worker count for a harness: `--threads N` on
/// the command line wins, else 0 (which defers to `ASDEX_THREADS` inside
/// the batched pipeline, else serial). The thread count changes
/// wall-clock only, never results.
pub fn bench_threads() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            return args.next().and_then(|v| v.parse().ok()).unwrap_or(0);
        }
    }
    0
}

/// Summary statistics over per-run step counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Number of contributing runs.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sample standard deviation (0 for < 2 runs).
    pub std: f64,
}

impl Stats {
    /// Computes statistics of a sample; all-zero for an empty slice.
    pub fn of(samples: &[usize]) -> Stats {
        if samples.is_empty() {
            return Stats { n: 0, mean: 0.0, min: 0.0, max: 0.0, std: 0.0 };
        }
        let n = samples.len();
        let mean = samples.iter().sum::<usize>() as f64 / n as f64;
        let min = *samples.iter().min().expect("nonempty") as f64;
        let max = *samples.iter().max().expect("nonempty") as f64;
        let std = if n < 2 {
            0.0
        } else {
            (samples.iter().map(|&s| (s as f64 - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
        };
        Stats { n, mean, min, max, std }
    }
}

/// Prints a report table with a title, column headers, and rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, String::len))
                .chain([h.len()])
                .max()
                .unwrap_or(0)
        })
        .collect();
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("| {:<width$} ", c, width = widths[i]));
        }
        s.push('|');
        println!("{s}");
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    println!("|{}|", widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|"));
    for row in rows {
        line(row.clone());
    }
}

/// Writes rows as CSV under `bench_results/<name>.csv` at the workspace
/// root, whatever the working directory (best effort — a read-only
/// filesystem only loses the file, not the run).
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let mut out = String::new();
    out.push_str(&headers.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    let _ = fs::write(dir.join(format!("{name}.csv")), out);
}

/// Merges per-run evaluation telemetry into one record and renders the
/// one-line summary every harness prints beneath its table: total
/// simulator calls, failures by kind, retry-ladder activity.
pub fn telemetry_line(per_run: &[asdex_env::EvalStats]) -> String {
    let mut total = asdex_env::EvalStats::new();
    for s in per_run {
        total.merge(s);
    }
    total.to_string()
}

/// Formats a float with a fixed number of decimals, rendering
/// non-finite/sentinel values as `"failed"`.
pub fn fmt_or_failed(x: f64, decimals: usize) -> String {
    if x.is_finite() {
        format!("{x:.decimals$}")
    } else {
        "failed".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basic() {
        let s = Stats::of(&[10, 20, 30]);
        assert_eq!(s.n, 3);
        assert_eq!(s.mean, 20.0);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 30.0);
        assert!((s.std - 10.0).abs() < 1e-12);
    }

    #[test]
    fn stats_degenerate() {
        assert_eq!(Stats::of(&[]).n, 0);
        let s = Stats::of(&[7]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_or_failed(1.23456, 2), "1.23");
        assert_eq!(fmt_or_failed(f64::NAN, 2), "failed");
        assert_eq!(fmt_or_failed(f64::INFINITY, 1), "failed");
    }
}
