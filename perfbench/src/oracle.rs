//! The independent trace oracle behind the explore workloads' output
//! check: what `datareuse explore --cross-validate` does. It generates
//! the signal's address trace and replays it through Belady's optimal
//! replacement at every exact candidate's size. It runs outside the
//! timed phase, once per kernel.

use datareuse_core::SignalExploration;
use datareuse_loopir::{read_addresses, Program};
use datareuse_trace::{opt_simulate, opt_simulate_bypass};

use crate::tracer::Tracer;

/// Longest trace replayed. Longer ones (me and susan at QCIF size) would
/// take the oracle minutes and hundreds of megabytes per run.
pub const MAX_TRACE: u64 = 1 << 17;

/// What one cross-validation found.
pub struct Verdict {
    /// Accesses in the generated trace.
    pub trace_len: u64,
    /// Accesses replayed through Belady, over all candidates.
    pub replayed: u64,
    /// The trace is `C_tot` long, and for every exact candidate Belady
    /// needs no more upstream reads than fills plus bypasses.
    pub agrees: bool,
}

/// Cross-validates one exploration, recording `loopir.trace` and
/// `trace.belady` spans when the tracer is on.
pub fn cross_validate(
    program: &Program,
    array: &str,
    ex: &SignalExploration,
    tr: &mut Tracer,
) -> Verdict {
    let trace = tr.call("loopir.trace", || read_addresses(program, array));
    let trace_len = trace.len() as u64;
    let mut agrees = trace_len == ex.c_tot;
    let mut replayed = 0;
    for c in ex.candidates.iter().filter(|c| c.exact && c.size > 0) {
        let sim = tr.call("trace.belady", || {
            if c.bypasses == 0 {
                opt_simulate(&trace, c.size)
            } else {
                opt_simulate_bypass(&trace, c.size)
            }
        });
        replayed += trace_len;
        agrees &= sim.misses() <= c.fills + c.bypasses;
    }
    Verdict {
        trace_len,
        replayed,
        agrees,
    }
}
