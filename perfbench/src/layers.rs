//! Per-layer metrics of a traced run: span timings from the benchmark's
//! own calls into each layer, `obs` counter deltas, and the split of op
//! wall time into layer self time.

use datareuse_obs::{counter_value, Counter};

use crate::stats::median;
use crate::tracer::Tracer;
use crate::Outcome;

/// Span names of the layer calls the benchmark times; each gives a
/// `<name>_us` median. The first five are the calls of a timed op and
/// also give a `self_share.<name>`; the last two are the trace oracle's,
/// run outside the timed phase.
const CALLS: [&str; 7] = [
    "kernels.load",
    "core.explore",
    "core.report_build",
    "core.report_render",
    "memmodel.pareto",
    "loopir.trace",
    "trace.belady",
];

/// The timed op's calls, out of [`CALLS`].
const OP_CALLS: usize = 5;

/// Layers whose per-op allocation is reported as `obs.alloc_bytes.<layer>`.
const ALLOC_LAYERS: [&str; 3] = ["kernels", "core", "memmodel"];

/// Every per-layer metric with its unit. Must match `per_layer` in
/// `BENCHMARK.json`. A workload that never calls a layer reports 0 for it.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        CALLS.iter().map(|c| (format!("{c}_us"), "us")).collect();
    for (name, unit) in [
        ("core.symbolic_hit_ratio", "ratio"),
        ("core.sim_fallbacks_guarded", "count"),
        ("core.pairs_swept", "count"),
        ("memmodel.chains_evaluated", "count"),
        ("memmodel.pareto_kept_ratio", "ratio"),
        ("loopir.trace_len", "count"),
        ("trace.belady_accesses", "count"),
        ("trace.belady_maccess_per_s", "M/s"),
    ] {
        all.push((name.to_string(), unit));
    }
    all.extend(
        ALLOC_LAYERS
            .iter()
            .map(|l| (format!("obs.alloc_bytes.{l}"), "B")),
    );
    all.extend(
        CALLS[..OP_CALLS]
            .iter()
            .map(|c| (format!("self_share.{c}"), "ratio")),
    );
    for (name, unit) in [
        ("bench.uncovered_share", "ratio"),
        ("obs.trace_overhead", "ratio"),
        ("bench.failed_frac", "ratio"),
    ] {
        all.push((name.to_string(), unit));
    }
    all
}

/// The `obs` counters a traced run reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub symbolic_hits: u64,
    pub sim_fallbacks: u64,
    pub sim_fallbacks_guarded: u64,
    pub pairs_swept: u64,
    pub chains_evaluated: u64,
    pub pareto_kept: u64,
    pub pareto_dropped: u64,
}

impl Counts {
    /// Current counter values: what the traced ops counted since the
    /// timed phase reset them.
    pub fn now() -> Self {
        Self {
            symbolic_hits: counter_value(Counter::SymbolicHits),
            sim_fallbacks: counter_value(Counter::SimFallbacks),
            sim_fallbacks_guarded: counter_value(Counter::SimFallbackGuarded),
            pairs_swept: counter_value(Counter::ExplorePairsSwept),
            chains_evaluated: counter_value(Counter::ChainsEvaluated),
            pareto_kept: counter_value(Counter::ParetoPointsKept),
            pareto_dropped: counter_value(Counter::ParetoPointsDropped),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Span timings, allocation, self time and the core/memmodel counters.
/// Counts are per traced op (the `op` spans).
pub fn report(out: &mut Outcome, tr: &Tracer, c: &Counts) {
    for call in CALLS {
        let d = tr.durations_us(call);
        if !d.is_empty() {
            out.metric(format!("{call}_us"), median(&d), "us");
        }
    }
    let ops = tr.durations_us("op").len() as u64;
    let per_op = |n: u64| ratio(n, ops);
    out.metric(
        "core.symbolic_hit_ratio",
        ratio(c.symbolic_hits, c.symbolic_hits + c.sim_fallbacks),
        "ratio",
    );
    out.metric(
        "core.sim_fallbacks_guarded",
        per_op(c.sim_fallbacks_guarded),
        "count",
    );
    out.metric("core.pairs_swept", per_op(c.pairs_swept), "count");
    out.metric(
        "memmodel.chains_evaluated",
        per_op(c.chains_evaluated),
        "count",
    );
    out.metric(
        "memmodel.pareto_kept_ratio",
        ratio(c.pareto_kept, c.pareto_kept + c.pareto_dropped),
        "ratio",
    );
    for layer in ALLOC_LAYERS {
        let bytes: u64 = CALLS[..OP_CALLS]
            .iter()
            .filter(|c| c.split('.').next() == Some(layer))
            .map(|c| tr.alloc_bytes(c))
            .sum();
        out.metric(format!("obs.alloc_bytes.{layer}"), per_op(bytes), "B");
    }
    for (name, share) in tr.self_shares() {
        let metric = if name == "op" {
            "bench.uncovered_share".to_string()
        } else {
            format!("self_share.{name}")
        };
        out.metric(metric, share, "ratio");
    }
    out.metric(
        "bench.failed_frac",
        ratio(out.failed, out.attempted),
        "ratio",
    );
}

/// `obs.trace_overhead`: traced p50 over untraced p50 of the same ops.
pub fn overhead(out: &mut Outcome, untraced_us: &[f64], traced_us: &[f64]) {
    if !untraced_us.is_empty() && !traced_us.is_empty() {
        out.metric(
            "obs.trace_overhead",
            median(traced_us) / median(untraced_us),
            "ratio",
        );
    }
}

/// Orders the traced run's metrics as `per_layer` lists them and adds a
/// 0 for every layer the workload never called.
pub fn complete(out: &mut Outcome) {
    let measured = std::mem::take(&mut out.metrics);
    for (name, unit) in per_layer() {
        let value = measured
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, v, _)| *v);
        out.metrics.push((name, value, unit));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The end-to-end metrics `Outcome::end_to_end` reports, with units.
    const END_TO_END: [(&str, &str); 6] = [
        ("setup_s", "s"),
        ("op_p50_us", "us"),
        ("op_tail_us", "us"),
        ("ops_per_s", "1/s"),
        ("alloc_bytes_per_op", "B"),
        ("peak_heap_bytes", "B"),
    ];

    /// The metric names in one section of `BENCHMARK.json`, in order.
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let body = text
            .split(&format!("\"{section}\""))
            .nth(1)
            .and_then(|rest| rest.split(']').next())
            .expect("section present");
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    entry
                        .split(&format!("\"{key}\": \""))
                        .nth(1)
                        .and_then(|v| v.split('"').next())
                        .expect("field present")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_code_reports() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn complete_fills_unmeasured_layers_with_zero_in_listed_order() {
        let mut out = Outcome::default();
        out.metric("core.explore_us", 12.5, "us");
        complete(&mut out);
        let names: Vec<&str> = out.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let listed: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, listed);
        let explore = out
            .metrics
            .iter()
            .find(|(n, _, _)| n == "core.explore_us")
            .unwrap();
        assert_eq!(explore.1, 12.5);
        assert!(out
            .metrics
            .iter()
            .filter(|(n, _, _)| n != "core.explore_us")
            .all(|m| m.1 == 0.0));
    }
}
