//! The datareuse benchmark: seeded workloads run in one process through
//! the public functions of the workspace crates.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is one JSON object
//! carrying the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics of a traced run, and the spans are written to
//! `perfbench/out/`. `README.md` next to this package documents the
//! workloads and metrics.

mod explore;
mod layers;
mod oracle;
mod stats;
mod tracer;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use datareuse_obs::{alloc_snapshot, reset_metrics, set_metrics_enabled, thread_alloc_bytes};

use explore::OpSize;
use layers::Counts;
use stats::{median, windowed_tail};
use tracer::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["affine-explore", "guarded-explore"];

/// Parsed command line.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub run: Duration,
    pub trace: bool,
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// The traced run's spans as JSON, written out when the run ends.
    pub spans: Option<String>,
}

impl Outcome {
    /// Adds a metric; non-finite values are reported as 0.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds the end-to-end metrics of a closed-loop run: set-up time,
    /// median and tail op latency (printing the tail's percentile and
    /// sample count beside it; see [`windowed_tail`]), ops per second of
    /// op time, bytes allocated per op, and the heap peak.
    fn end_to_end(&mut self, setup_s: f64, lat_us: &[f64], alloc_bytes: u64, heap_peak: u64) {
        let ops = lat_us.len() as f64;
        self.metric("setup_s", setup_s, "s");
        self.metric("op_p50_us", median(lat_us), "us");
        match windowed_tail(lat_us) {
            Some(t) => {
                println!(
                    "op_tail_us = p{:.3} of {} samples ({} beyond it), median over {} windows",
                    t.percentile,
                    t.samples,
                    stats::TAIL_BEYOND,
                    lat_us.len() / t.samples
                );
                self.metric("op_tail_us", t.value, "us");
            }
            None => println!("op_tail_us: only {} samples, no tail", lat_us.len()),
        }
        self.metric("ops_per_s", ops / (lat_us.iter().sum::<f64>() / 1e6), "1/s");
        self.metric("alloc_bytes_per_op", alloc_bytes as f64 / ops, "B");
        self.metric("peak_heap_bytes", heap_peak as f64, "B");
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// How often a run re-times its set-up, and how many set-ups it times
/// back to back each time. One set-up takes microseconds to a
/// millisecond, far less than the machine's own slow spells last, so
/// set-up time is sampled through the whole run and its median reported.
const SETUP_EVERY: Duration = Duration::from_millis(100);
const SETUP_BATCH: usize = 8;

/// What the timed phase of a run measured.
pub struct Measured {
    /// Latencies in µs of the untraced ops, then of the traced ones, each
    /// in the order they were taken.
    pub lat_us: [Vec<f64>; 2],
    pub attempted: u64,
    pub failed: u64,
    /// Bytes the ops allocated (they all run on this thread).
    pub alloc_bytes: u64,
    /// Peak live heap above the level live when the phase began.
    pub heap_peak: u64,
    /// `obs` counter deltas, counted only while tracing.
    pub counts: Counts,
    pub tracer: Tracer,
    /// Set-up times in seconds: the run's real set-up, then re-timed ones.
    pub setup_s: Vec<f64>,
}

/// Runs ops in a closed loop for `cfg.run`, and on until there are
/// enough untraced samples for a tail. `op` is one timed op, and `check`
/// judges its output outside the timed interval. `first_setup` is how
/// long the workload's real set-up took; an untraced run re-times
/// `setup`, which repeats that work and discards it, [`SETUP_BATCH`]
/// times in a row every [`SETUP_EVERY`] between ops. A traced run traces
/// every other op, with the `obs` metrics on, so that the tracing
/// overhead is measured on the same op sequence.
pub fn closed_loop<T>(
    cfg: &Config,
    mut tracer: Tracer,
    first_setup: Duration,
    mut setup: impl FnMut(),
    mut op: impl FnMut(&mut Tracer) -> T,
    mut check: impl FnMut(T) -> bool,
) -> Measured {
    // Sized for any run, and allocated before the phase begins, so that
    // growing it never shows in the heap peak.
    let buffer = || Vec::with_capacity(cfg.run.as_secs() as usize * 100_000);
    let mut lat_us = [buffer(), buffer()];
    let (mut id, mut failed, mut alloc_bytes) = (0u64, 0u64, 0u64);
    reset_metrics();
    let live_at_start = alloc_snapshot().live_bytes;
    let mut setup_s = vec![first_setup.as_secs_f64()];
    setup_s.reserve((cfg.run.as_millis() / SETUP_EVERY.as_millis() + 1) as usize * SETUP_BATCH);
    let deadline = Instant::now() + cfg.run;
    let mut next_setup = Instant::now();
    while Instant::now() < deadline || lat_us[0].len() <= stats::TAIL_BEYOND {
        if !cfg.trace && Instant::now() >= next_setup {
            next_setup = Instant::now() + SETUP_EVERY;
            for _ in 0..SETUP_BATCH {
                let t = Instant::now();
                setup();
                setup_s.push(t.elapsed().as_secs_f64());
            }
        }
        let traced = cfg.trace && id % 2 == 1;
        tracer.set_on(traced);
        set_metrics_enabled(traced);
        let b0 = thread_alloc_bytes();
        let t0 = Instant::now();
        let output = tracer.op(id, &mut op);
        let dt = t0.elapsed();
        alloc_bytes += thread_alloc_bytes() - b0;
        lat_us[usize::from(traced)].push(dt.as_secs_f64() * 1e6);
        id += 1;
        if !check(output) {
            failed += 1;
        }
    }
    set_metrics_enabled(false);
    Measured {
        lat_us,
        attempted: id,
        failed,
        alloc_bytes,
        heap_peak: alloc_snapshot().peak_bytes - live_at_start,
        counts: Counts::now(),
        tracer,
        setup_s,
    }
}

impl Measured {
    /// The run's result: the end-to-end metrics, or in a traced run the
    /// per-layer metrics and the spans.
    pub fn outcome(&self, cfg: &Config) -> Outcome {
        let mut out = Outcome {
            attempted: self.attempted,
            failed: self.failed,
            ..Outcome::default()
        };
        if cfg.trace {
            out.spans = Some(self.tracer.spans_json());
            layers::report(&mut out, &self.tracer, &self.counts);
            layers::overhead(&mut out, &self.lat_us[0], &self.lat_us[1]);
        } else {
            out.end_to_end(
                median(&self.setup_s),
                &self.lat_us[0],
                self.alloc_bytes,
                self.heap_peak,
            );
        }
        out
    }
}

/// SplitMix64: the benchmark's seeded input generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: u64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Config {
        workload,
        seed,
        run: Duration::from_secs(seconds),
        trace,
    })
}

/// Writes a traced run's spans under `perfbench/out/`.
fn write_spans(cfg: &Config, spans: &str) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{}-seed{}.json", cfg.workload, cfg.seed);
    std::fs::write(&path, spans)?;
    Ok(path)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = match cfg.workload.as_str() {
        "affine-explore" => explore::run(&cfg, &explore::affine_kernels(), OpSize::Kernel),
        "guarded-explore" => explore::run(&cfg, &explore::guarded_kernels(), OpSize::Pass),
        _ => unreachable!("workload names are checked when parsed"),
    };
    match result {
        Ok(mut outcome) => {
            if cfg.trace {
                layers::complete(&mut outcome);
            }
            if let Some(spans) = &outcome.spans {
                match write_spans(&cfg, spans) {
                    Ok(path) => println!("spans written to {path}"),
                    Err(e) => {
                        eprintln!("perfbench: cannot write spans: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_the_four_keys_and_full_digits() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        o.metric("op_p50_us", 12.345678912345, "us");
        o.metric("bad", f64::NAN, "ratio");
        let json = o.to_json();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"op_p50_us\": {\"value\": 12.345678912345, \"unit\": \"us\"}, \
             \"bad\": {\"value\": 0.0, \"unit\": \"ratio\"}}}"
        );
        o.failed = 1;
        assert!(o.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn the_generator_is_a_pure_function_of_the_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            let mut v: Vec<u32> = (0..20).collect();
            r.shuffle(&mut v);
            v
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut sorted = draw(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
