//! The closed-loop explore workloads: one caller, in process, runs the
//! designer's loop `load_kernel` → `explore_signal` → `pareto` →
//! `ExplorationReport::build` + `to_json` over a seeded kernel sequence,
//! one kernel or one whole pass of the sequence per timed op.

use std::hint::black_box;
use std::time::Instant;

use datareuse_core::{explore_signal, ExplorationReport, ExploreOptions};
use datareuse_kernels::{corpus, load_kernel};
use datareuse_loopir::{trace_len, Program, TraceFilter};
use datareuse_memmodel::{BitCount, MemoryTechnology};
use datareuse_server::ops::{default_array, explore};
use datareuse_server::protocol::ExploreParams;

use crate::tracer::Tracer;
use crate::{closed_loop, oracle, Config, Outcome, Rng};

/// Builtins whose accesses carry no guards, so the symbolic engine
/// answers them in closed form, plus the generated einsum corpus.
pub fn affine_kernels() -> Vec<String> {
    let builtins = [
        "fir",
        "me",
        "me-small",
        "conv2d",
        "matmul",
        "sobel",
        "downsample",
    ];
    builtins
        .iter()
        .map(|s| (*s).to_string())
        .chain(corpus().iter().map(|e| e.name.clone()))
        .collect()
}

/// The guarded SUSAN kernels: their circular mask makes the symbolic
/// engine fall back to enumeration. Their costs differ about 40×, so
/// this workload's op is a whole pass over them, and each kernel counts
/// toward every metric in proportion to its cost.
pub fn guarded_kernels() -> Vec<String> {
    ["susan-small", "susan-unfolded", "susan"]
        .map(String::from)
        .to_vec()
}

/// The options every timed exploration uses: the sequential sweep.
pub fn options() -> ExploreOptions {
    ExploreOptions {
        threads: Some(1),
        ..ExploreOptions::default()
    }
}

/// One kernel of the sequence with the answer it must produce.
struct Kernel {
    name: String,
    array: String,
    reference: String,
    /// The trace oracle did not contradict the reference.
    oracle_agrees: bool,
}

/// What the trace oracle replayed while the references were checked.
#[derive(Default)]
struct OracleTotals {
    traced: u64,
    replayed: u64,
}

/// The timed op. Returns the report JSON.
fn explore_op(name: &str, array: &str, tr: &mut Tracer) -> Result<String, String> {
    let opts = options();
    let tech = MemoryTechnology::new();
    let program = tr.call("kernels.load", || load_kernel(name))?;
    let ex = tr
        .call("core.explore", || explore_signal(&program, array, &opts))
        .map_err(|e| format!("{name}: {e}"))?;
    let front = tr.call("memmodel.pareto", || ex.pareto(&opts, &tech, &BitCount));
    black_box(front);
    let report = tr.call("core.report_build", || {
        ExplorationReport::build(&ex, &opts, &tech, &BitCount)
    });
    Ok(tr.call("core.report_render", || report.to_json()))
}

/// Picks each kernel's signal and its reference answer, outside any
/// timed region. The reference is what `datareuse explore <kernel>
/// --json` and the server's `explore` op return, computed with the
/// default (parallel) sweep. `C_tot` is checked against the loop-IR
/// trace counter, which does not use the symbolic engine, and kernels
/// with a short enough trace are cross-validated by the trace oracle
/// (each under a `check` span when tracing).
fn references(
    names: &[String],
    programs: &[Program],
    tr: &mut Tracer,
) -> Result<(Vec<Kernel>, OracleTotals), String> {
    let mut totals = OracleTotals::default();
    let mut kernels = Vec::with_capacity(names.len());
    for (id, (name, program)) in names.iter().zip(programs).enumerate() {
        let array = default_array(program).ok_or_else(|| format!("{name}: no reads"))?;
        let ex = explore_signal(program, &array, &options()).map_err(|e| e.to_string())?;
        let trace = trace_len(program, &array, TraceFilter::READS);
        if ex.c_tot != trace {
            return Err(format!(
                "{name}: C_tot {} != trace length {trace}",
                ex.c_tot
            ));
        }
        let mut oracle_agrees = true;
        if trace <= oracle::MAX_TRACE {
            let verdict = tr.root("check", id as u64, |tr| {
                oracle::cross_validate(program, &array, &ex, tr)
            });
            totals.traced += verdict.trace_len;
            totals.replayed += verdict.replayed;
            oracle_agrees = verdict.agrees;
        }
        let params = ExploreParams {
            kernel: name.clone(),
            array: Some(array.clone()),
            depth: None,
        };
        let reference = explore(&params).map_err(|e| e.message)?.to_string();
        kernels.push(Kernel {
            name: name.clone(),
            array,
            reference,
            oracle_agrees,
        });
    }
    Ok((kernels, totals))
}

/// How many explores make one timed op.
pub enum OpSize {
    /// One kernel: each op explores the next kernel of the sequence.
    Kernel,
    /// A whole pass: each op explores every kernel once.
    Pass,
}

pub fn run(cfg: &Config, names: &[String], size: OpSize) -> Result<Outcome, String> {
    let t = Instant::now();
    let programs = names
        .iter()
        .map(|n| load_kernel(n))
        .collect::<Result<Vec<Program>, String>>()?;
    let first_setup = t.elapsed();
    let mut tracer = Tracer::new(cfg.trace);
    let (kernels, oracle) = references(names, &programs, &mut tracer)?;

    // The seed orders the kernels: each pass explores every kernel once,
    // in a fresh seeded order.
    let mut rng = Rng::new(cfg.seed);
    let mut order: Vec<usize> = (0..kernels.len()).collect();
    let mut next = order.len();
    let per_op = match size {
        OpSize::Kernel => 1,
        OpSize::Pass => kernels.len(),
    };
    let measured = closed_loop(
        cfg,
        tracer,
        first_setup,
        || {
            for name in names {
                drop(black_box(load_kernel(name)));
            }
        },
        |tr| {
            (0..per_op)
                .map(|_| {
                    if next == order.len() {
                        rng.shuffle(&mut order);
                        next = 0;
                    }
                    let k = &kernels[order[next]];
                    next += 1;
                    (k, explore_op(&k.name, &k.array, tr))
                })
                .collect::<Vec<_>>()
        },
        |outputs| {
            outputs
                .into_iter()
                .all(|(k, out)| k.oracle_agrees && matches!(out, Ok(json) if json == k.reference))
        },
    );
    let mut out = measured.outcome(cfg);
    if cfg.trace {
        out.metric("loopir.trace_len", oracle.traced as f64, "count");
        out.metric("trace.belady_accesses", oracle.replayed as f64, "count");
        let belady_s = measured
            .tracer
            .durations_us("trace.belady")
            .iter()
            .sum::<f64>()
            / 1e6;
        out.metric(
            "trace.belady_maccess_per_s",
            oracle.replayed as f64 / belady_s / 1e6,
            "M/s",
        );
    }
    Ok(out)
}
