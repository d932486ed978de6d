//! Spans recorded by the benchmark around its own calls into the
//! program's layers. Off (the untraced run), entering and leaving a span
//! reads no clock and stores nothing.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call (or batch of calls) into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer: the crate name, or `bench` for the benchmark's own request
    /// span that encloses a request's layer calls.
    pub layer: &'static str,
    pub op: &'static str,
    /// Request the call belongs to; spans of one request share it.
    pub request: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the span covers (a replay batch covers many).
    pub calls: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

/// Per-layer totals over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub spans: u64,
    pub calls: u64,
    pub ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

pub struct Spans {
    origin: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans {
            origin: None,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on() -> Spans {
        Spans {
            origin: Some(Instant::now()),
            ..Spans::off()
        }
    }

    pub fn enter(&mut self, layer: &'static str, op: &'static str, request: u64) -> Open {
        let Some(origin) = self.origin else {
            return Open(None);
        };
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            op,
            request,
            parent: self.stack.last().copied(),
            start_ns: origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            calls: 1,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open, calls: u64) {
        let (Some(origin), Some(idx)) = (self.origin, open.0) else {
            return;
        };
        let end = origin.elapsed().as_nanos() as u64;
        assert_eq!(self.stack.pop(), Some(idx), "spans must close in order");
        let s = &mut self.spans[idx];
        s.end_ns = end;
        s.calls = calls;
    }

    /// Runs `f` inside a span covering `calls` calls.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        op: &'static str,
        request: u64,
        calls: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.enter(layer, op, request);
        let r = f();
        self.exit(open, calls);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span of `layer`/`op`.
    pub fn durations(&self, layer: &str, op: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.op == op)
            .map(Span::ns)
            .collect()
    }

    /// Nanoseconds per call over every span of `layer`/`op`.
    pub fn ns_per_call(&self, layer: &str, op: &str) -> f64 {
        let (ns, calls) = self
            .spans
            .iter()
            .filter(|s| s.layer == layer && s.op == op)
            .fold((0u64, 0u64), |(n, c), s| (n + s.ns(), c + s.calls));
        crate::stats::ratio(ns as f64, calls as f64)
    }

    /// Totals and self time per layer.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.layer).or_default();
            t.spans += 1;
            t.calls += s.calls;
            t.ns += s.ns();
            t.self_ns += s.ns().saturating_sub(child);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut sp = Spans::off();
        let v = sp.time("othello", "moves", 0, 10, || 7);
        assert_eq!(v, 7);
        assert!(sp.spans().is_empty());
        assert!(sp.layer_totals().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut sp = Spans::on();
        let req = sp.enter("bench", "request", 3);
        sp.time("er-parallel", "er_threads", 3, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        sp.exit(req, 1);
        let t = sp.layer_totals();
        let bench = t["bench"];
        let par = t["er-parallel"];
        assert_eq!(sp.spans()[1].parent, Some(0));
        assert!(par.ns >= 2_000_000);
        assert!(bench.ns >= par.ns);
        assert_eq!(bench.self_ns, bench.ns - par.ns);
        assert!(sp.spans().iter().all(|s| s.request == 3));
    }
}
