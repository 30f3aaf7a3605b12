//! Spans recorded from the benchmark's own code around each call into a
//! layer of the program: name, start, end, parent and op id. They stay in
//! memory during the run and are written out when it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use datareuse_obs::thread_alloc_bytes;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, `<layer>.<call>`; `op` for a whole benchmark op.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The benchmark op this span belongs to.
    pub op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. When off, [`Tracer::call`] only runs the closure.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    /// Bytes allocated on the calling thread, per span name.
    alloc: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer recording from now on when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            alloc: BTreeMap::new(),
        }
    }

    /// Turns recording on or off (between ops only).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` as one call named `name`, recording its span and the
    /// bytes it allocated on this thread.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let bytes = thread_alloc_bytes();
        let out = f();
        let bytes = thread_alloc_bytes() - bytes;
        let end = self.ns(Instant::now());
        self.open.pop();
        self.spans[idx].end_ns = end;
        *self.alloc.entry(name).or_default() += bytes;
        out
    }

    /// Runs `f` as timed benchmark op `id`: a root span named `op` that
    /// the layer calls made inside `f` nest under.
    pub fn op<T>(&mut self, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        self.root("op", id, f)
    }

    /// Runs `f` under a root span `name` with op id `id`.
    pub fn root<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        self.op = id;
        if !self.on {
            return f(self);
        }
        // `call` cannot lend `self` to the closure, so open the root span
        // by hand with the same bookkeeping.
        let idx = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: 0,
            parent: None,
            op: id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Bytes allocated on this thread inside every call named `name`.
    pub fn alloc_bytes(&self, name: &str) -> u64 {
        self.alloc.get(name).copied().unwrap_or(0)
    }

    /// Self time per span name within `op` spans (other roots, such as
    /// output checks, are left out): each span's duration minus what its
    /// direct children cover. The `op` entry is the part of the ops' wall
    /// time that no layer call covers. Returns the shares of the ops'
    /// total wall time; they sum to 1.
    pub fn self_shares(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut in_op = vec![false; self.spans.len()];
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut wall = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            // Parents always precede their children in `spans`.
            in_op[i] = s.name == "op" || s.parent.is_some_and(|p| in_op[p]);
            if !in_op[i] {
                continue;
            }
            if s.parent.is_none() {
                wall += s.dur_ns();
            }
            *self_ns.entry(s.name).or_default() += s.dur_ns().saturating_sub(child_ns[i]);
        }
        self_ns
            .into_iter()
            .map(|(name, ns)| {
                (
                    name,
                    if wall == 0 {
                        0.0
                    } else {
                        ns as f64 / wall as f64
                    },
                )
            })
            .collect()
    }

    /// The spans as a JSON array, one span object per line.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.op(1, |t| t.call("core.explore", || 7));
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
        assert!(t.self_shares().is_empty());
    }

    #[test]
    fn layer_calls_nest_under_their_op_and_self_shares_sum_to_one() {
        let mut t = Tracer::new(true);
        for id in 0..3 {
            t.op(id, |t| {
                t.call("kernels.load", || busy(200));
                busy(100);
                t.call("core.explore", || {
                    let v: Vec<u8> = std::hint::black_box(vec![1; 4096]);
                    busy(300);
                    v.len()
                });
            });
        }
        assert_eq!(t.spans.len(), 9);
        for s in &t.spans {
            match s.name {
                "op" => assert_eq!(s.parent, None),
                _ => {
                    let p = &t.spans[s.parent.unwrap()];
                    assert_eq!(p.name, "op");
                    assert_eq!(p.op, s.op);
                    assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
                }
            }
        }
        let shares = t.self_shares();
        let total: f64 = shares.values().sum();
        assert!((total - 1.0).abs() < 1e-9, "{shares:?}");
        assert!(shares["core.explore"] > shares["kernels.load"]);
        assert!(
            shares["op"] > 0.0,
            "the un-covered busy(100) is op self time"
        );
        assert!(t.alloc_bytes("core.explore") >= 3 * 4096);
        assert_eq!(t.alloc_bytes("trace.belady"), 0);
        assert_eq!(t.durations_us("kernels.load").len(), 3);
    }
}
