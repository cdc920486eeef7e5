//! In-memory span recording and the timing oracle wrapper.
//!
//! A span is one call into a layer: its instance, layer name, start, end
//! and parent span. Spans are kept in memory while a traced pass runs and
//! written out as JSON lines when it ends. A layer's self time is its
//! span's duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use sim::{FallibleScanAccess, OracleFault, ScanResponse};

/// Identifier of one recorded span.
pub type SpanId = u32;

/// One recorded layer call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub instance: usize,
    pub layer: &'static str,
    pub start: Instant,
    pub end: Instant,
}

/// The span store of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: SpanId,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Reserves an id for a span whose layer is known only when it ends,
    /// so that its children can name it as their parent.
    pub fn reserve(&mut self) -> SpanId {
        let id = self.next;
        self.next += 1;
        id
    }

    /// Records a span under a previously reserved id.
    pub fn record_as(
        &mut self,
        id: SpanId,
        parent: Option<SpanId>,
        instance: usize,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            instance,
            layer,
            start,
            end,
        });
    }

    /// Records a span under a fresh id and returns it.
    pub fn record(
        &mut self,
        parent: Option<SpanId>,
        instance: usize,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.reserve();
        self.record_as(id, parent, instance, layer, start, end);
        id
    }

    /// Records the oracle calls a [`TimedOracle`] collected as children
    /// of `parent`.
    pub fn record_oracle_calls(&mut self, parent: SpanId, instance: usize, calls: &[OracleCall]) {
        for call in calls {
            self.record(Some(parent), instance, "sim.oracle", call.start, call.end);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, in seconds: each span's duration minus the
    /// union of its children's intervals clipped to it.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: BTreeMap<SpanId, Vec<(Instant, Instant)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end.saturating_duration_since(s.start);
            let covered = children
                .get(&s.id)
                .map_or(Duration::ZERO, |kids| covered(s.start, s.end, kids));
            *out.entry(s.layer).or_default() += total.saturating_sub(covered).as_secs_f64();
        }
        out
    }

    /// Summed duration of every span of `layer`, in seconds.
    pub fn total(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.end.saturating_duration_since(s.start).as_secs_f64())
            .sum()
    }

    /// The spans as JSON lines, times in nanoseconds since the pass began.
    pub fn to_jsonl(&self) -> String {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos();
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"instance\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.instance,
                s.layer,
                ns(s.start),
                ns(s.end)
            );
        }
        out
    }
}

/// Length of the union of `kids` clipped to `[start, end]`.
fn covered(start: Instant, end: Instant, kids: &[(Instant, Instant)]) -> Duration {
    let mut iv: Vec<(Instant, Instant)> = kids
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort();
    let mut total = Duration::ZERO;
    let mut cur: Option<(Instant, Instant)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// One timed oracle session.
#[derive(Debug, Clone, Copy)]
pub struct OracleCall {
    pub start: Instant,
    pub end: Instant,
    pub fault: bool,
}

/// Wraps an oracle and times every session it serves. The attack sees
/// the wrapped oracle unchanged; the driver drains the recorded calls
/// after each call into the attack and files them under that call's span.
#[derive(Debug)]
pub struct TimedOracle<O> {
    inner: O,
    calls: Vec<OracleCall>,
}

impl<O> TimedOracle<O> {
    pub fn new(inner: O) -> TimedOracle<O> {
        TimedOracle {
            inner,
            calls: Vec::new(),
        }
    }

    /// The calls made since the last drain.
    pub fn drain(&mut self) -> Vec<OracleCall> {
        std::mem::take(&mut self.calls)
    }
}

impl<O: FallibleScanAccess> FallibleScanAccess for TimedOracle<O> {
    fn num_cells(&self) -> usize {
        self.inner.num_cells()
    }

    fn num_pis(&self) -> usize {
        self.inner.num_pis()
    }

    fn num_pos(&self) -> usize {
        self.inner.num_pos()
    }

    fn try_query_captures(
        &mut self,
        pattern: &[bool],
        pis: &[bool],
        captures: usize,
    ) -> Result<ScanResponse, OracleFault> {
        let start = Instant::now();
        let res = self.inner.try_query_captures(pattern, pis, captures);
        self.calls.push(OracleCall {
            start,
            end: Instant::now(),
            fault: res.is_err(),
        });
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new();
        let root = tr.reserve();
        tr.record(Some(root), 0, "child", at(10), at(30));
        tr.record(Some(root), 0, "child", at(20), at(40)); // overlaps the first
        tr.record(Some(root), 0, "child", at(90), at(120)); // runs past the parent
        tr.record_as(root, None, 0, "root", at(0), at(100));
        let st = tr.self_times();
        assert!((st["root"] - 0.060).abs() < 1e-9, "{st:?}");
        assert!((st["child"] - 0.070).abs() < 1e-9, "{st:?}");
    }
}
