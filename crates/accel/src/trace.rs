//! Schedule traces: what ran where, when, and how its data arrived.
//!
//! When [`SocConfig::record_trace`](crate::SocConfig) is set, the
//! simulator attaches a [`SpanCollector`] sink to its `relief-trace`
//! tracer; the collector distills the structured event stream down to one
//! [`Span`] per executed task (from `ComputeEnd` events, which are
//! self-contained). [`Trace::render`] prints the per-accelerator schedule
//! the way the paper's Figure 2 draws it, with forwarding (`~`) and
//! colocation (`=`) annotations on each task's input.

use relief_core::TaskKey;
use relief_sim::Time;
use relief_trace::{EventKind, Kind, KindSet, TraceEvent, TraceSink};
use std::fmt::Write as _;

/// One executed task's compute interval.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Span {
    /// Accelerator instance the task ran on.
    pub inst: usize,
    /// Compute start.
    pub start: Time,
    /// Compute end.
    pub end: Time,
    /// Which task this was.
    pub key: TaskKey,
    /// Human-readable label, `"<app>:n<node>"` (`"C:n3"`).
    pub label: String,
    /// Input edges satisfied by scratchpad-to-scratchpad forwarding.
    pub forwarded_inputs: u32,
    /// Input edges satisfied by colocation.
    pub colocated_inputs: u32,
}

impl Span {
    /// Annotation prefix: `=` colocated, `~` forwarded, `.` DRAM-fed.
    fn marker(&self) -> char {
        if self.colocated_inputs > 0 {
            '='
        } else if self.forwarded_inputs > 0 {
            '~'
        } else {
            '.'
        }
    }
}

/// A full run's schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Executed task spans, in completion order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Spans that ran on `inst`, in start order.
    pub fn per_instance(&self, inst: usize) -> Vec<&Span> {
        let mut spans: Vec<&Span> = self.spans.iter().filter(|s| s.inst == inst).collect();
        spans.sort_by_key(|s| s.start);
        spans
    }

    /// Number of accelerator instances that executed anything.
    pub fn instances(&self) -> usize {
        self.spans.iter().map(|s| s.inst + 1).max().unwrap_or(0)
    }

    /// Renders the schedule, one line per accelerator instance:
    ///
    /// ```text
    /// acc0: [0-20 .D1:n0] [20-50 =D1:n1] ...
    /// acc1: [50-100 ~D1:n2] ...
    /// ```
    ///
    /// `=` marks a colocated input, `~` a forwarded one, `.` DRAM.
    pub fn render(&self, names: &[String]) -> String {
        let mut out = String::new();
        for inst in 0..self.instances() {
            let name = names.get(inst).cloned().unwrap_or_else(|| format!("acc{inst}"));
            let _ = write!(out, "{name}:");
            for s in self.per_instance(inst) {
                let _ = write!(
                    out,
                    " [{:.0}-{:.0} {}{}]",
                    s.start.as_us_f64(),
                    s.end.as_us_f64(),
                    s.marker(),
                    s.label
                );
            }
            out.push('\n');
        }
        out
    }

    /// True when `a`'s span ends no later than `b`'s begins.
    pub fn ran_before(&self, a: TaskKey, b: TaskKey) -> bool {
        let find = |k: TaskKey| self.spans.iter().find(|s| s.key == k);
        match (find(a), find(b)) {
            (Some(sa), Some(sb)) => sa.end <= sb.start,
            _ => false,
        }
    }
}

/// A [`TraceSink`] that keeps only `ComputeEnd` events, each distilled
/// into a [`Span`]. The simulator attaches one internally when
/// [`SocConfig::record_trace`](crate::SocConfig) is set.
#[derive(Debug, Clone, Default)]
pub struct SpanCollector {
    spans: Vec<Span>,
}

impl SpanCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        SpanCollector::default()
    }

    /// Removes and returns the collected spans, in completion order.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

impl TraceSink for SpanCollector {
    fn emit(&mut self, ev: TraceEvent) {
        if let EventKind::ComputeEnd { task, inst, start_ps, app, forwarded_inputs, colocated_inputs } =
            ev.kind
        {
            self.spans.push(Span {
                inst: inst as usize,
                start: Time::from_ps(start_ps),
                end: Time::from_ps(ev.at_ps),
                key: TaskKey::new(task.instance, task.node),
                label: format!("{app}:n{}", task.node),
                forwarded_inputs,
                colocated_inputs,
            });
        }
    }

    fn kinds(&self) -> KindSet {
        KindSet::of(&[Kind::ComputeEnd])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(inst: usize, start: u64, end: u64, node: u32, fwd: u32, coloc: u32) -> Span {
        Span {
            inst,
            start: Time::from_us(start),
            end: Time::from_us(end),
            key: TaskKey::new(0, node),
            label: format!("A:n{node}"),
            forwarded_inputs: fwd,
            colocated_inputs: coloc,
        }
    }

    #[test]
    fn renders_in_start_order_per_instance() {
        let trace = Trace {
            spans: vec![span(0, 20, 30, 1, 0, 1), span(0, 0, 10, 0, 0, 0), span(1, 5, 9, 2, 1, 0)],
        };
        let out = trace.render(&["A".into(), "B".into()]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "A: [0-10 .A:n0] [20-30 =A:n1]");
        assert_eq!(lines[1], "B: [5-9 ~A:n2]");
    }

    #[test]
    fn markers() {
        assert_eq!(span(0, 0, 1, 0, 0, 0).marker(), '.');
        assert_eq!(span(0, 0, 1, 0, 2, 0).marker(), '~');
        assert_eq!(span(0, 0, 1, 0, 2, 1).marker(), '='); // colocation wins
    }

    #[test]
    fn ordering_queries() {
        let trace = Trace { spans: vec![span(0, 0, 10, 0, 0, 0), span(0, 10, 20, 1, 0, 0)] };
        assert!(trace.ran_before(TaskKey::new(0, 0), TaskKey::new(0, 1)));
        assert!(!trace.ran_before(TaskKey::new(0, 1), TaskKey::new(0, 0)));
        assert!(!trace.ran_before(TaskKey::new(0, 0), TaskKey::new(0, 9)));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::default();
        assert_eq!(t.instances(), 0);
        assert_eq!(t.render(&[]), "");
    }
}
