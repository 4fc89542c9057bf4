//! Instrumentation for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into public
//! functions; nothing inside the program is instrumented. Host time the
//! boundary cannot see directly comes from two observers the simulator
//! accepts through its public API: a timing decorator installed with
//! `SocSim::with_policy_object`, and trace sinks attached with
//! `SocSim::with_tracer`.

use relief_core::{DeadlineScheme, Policy, PolicyKind, ReadyQueues, TaskEntry, TaskKey};
use relief_dag::AccTypeId;
use relief_sim::{EventQueue, SplitMix64, Time};
use relief_trace::{EventKind, TraceEvent, TraceSink, Tracer};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the log's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `accel.run`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Traced pass the span belongs to.
    pub pass: u32,
    /// Cell within the pass, when the span is per cell.
    pub cell: Option<u32>,
}

impl Span {
    /// Inclusive duration, ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// `(self ns, inclusive ns)` summed per span name over one pass.
pub type SpanTotals = BTreeMap<&'static str, (u64, u64)>;

/// An in-memory span log, written out once when the run ends.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Pass stamped on newly opened spans.
    pub pass: u32,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }
}

impl SpanLog {
    /// A log that records nothing, for untraced passes through code that
    /// opens spans.
    #[must_use]
    pub fn disabled() -> Self {
        SpanLog {
            enabled: false,
            ..SpanLog::default()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        cell: Option<u32>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
            cell,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records a finished child of the innermost open span whose time was
    /// measured elsewhere (the policy decorator folds thousands of calls
    /// into one such span per cell, keeping the log O(cells)). It is laid
    /// at the parent's start.
    pub fn folded_child(&mut self, name: &'static str, cell: Option<u32>, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        let start_ns = parent.map_or_else(|| self.now_ns(), |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent,
            pass: self.pass,
            cell,
        });
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Per pass, the summed self time and inclusive time of every span
    /// name.
    #[must_use]
    pub fn totals_by_pass(&self) -> BTreeMap<u32, SpanTotals> {
        let own = self.self_ns();
        let mut out: BTreeMap<u32, SpanTotals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let e = out.entry(s.pass).or_default().entry(s.name).or_default();
            e.0 += own;
            e.1 += s.dur_ns();
        }
        out
    }

    /// Chrome trace-event JSON ("complete" events, microseconds), loadable
    /// in `chrome://tracing` or Perfetto.
    #[must_use]
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let own = self.self_ns();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"pass\":{},\
                 \"cell\":{},\"self_us\":{:.3}}}}}",
                s.name,
                workload,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.pass,
                s.cell.map_or_else(|| "null".to_string(), |c| c.to_string()),
                own as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Host time and call count accumulated by a [`TimedPolicy`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PolicyTime {
    /// Policy entry points called.
    pub calls: u64,
    /// Host nanoseconds spent inside them, timer included.
    pub ns: u64,
}

/// A policy decorator that times every scheduling entry point and
/// forwards everything else unchanged, so the run it observes is the run
/// it would have been.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    time: Rc<Cell<PolicyTime>>,
}

impl TimedPolicy {
    /// Wraps a fresh instance of `kind`; the returned cell accumulates its
    /// timing.
    #[must_use]
    pub fn wrap(kind: PolicyKind) -> (Box<dyn Policy>, Rc<Cell<PolicyTime>>) {
        let time = Rc::new(Cell::new(PolicyTime::default()));
        (
            Box::new(TimedPolicy {
                inner: kind.build(),
                time: time.clone(),
            }),
            time,
        )
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn Policy) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self.inner.as_mut());
        let mut t = self.time.get();
        t.calls += 1;
        t.ns += t0.elapsed().as_nanos() as u64;
        self.time.set(t);
        out
    }
}

impl Policy for TimedPolicy {
    fn kind(&self) -> PolicyKind {
        self.inner.kind()
    }

    fn deadline_scheme(&self) -> DeadlineScheme {
        self.inner.deadline_scheme()
    }

    fn enqueue_ready(
        &mut self,
        queues: &mut ReadyQueues,
        batch: &mut Vec<TaskEntry>,
        now: Time,
        idle: &[usize],
    ) {
        self.timed(|p| p.enqueue_ready(queues, batch, now, idle));
    }

    fn pop(&mut self, queues: &mut ReadyQueues, acc: AccTypeId, now: Time) -> Option<TaskEntry> {
        self.timed(|p| p.pop(queues, acc, now))
    }

    fn pop_placed(
        &mut self,
        queues: &mut ReadyQueues,
        acc: AccTypeId,
        now: Time,
        is_idle: &dyn Fn(usize) -> bool,
    ) -> Option<(TaskEntry, Option<usize>)> {
        self.timed(|p| p.pop_placed(queues, acc, now, is_idle))
    }

    fn writeback_elision(&self, producer: TaskKey) -> Option<bool> {
        self.inner.writeback_elision(producer)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }
}

/// Simulated waits the counters sink does not keep: how long transfers
/// queued for the memory system, and how long ready tasks waited to start
/// computing.
#[derive(Debug, Default)]
pub struct WaitSink {
    ready_at: HashMap<(u32, u32), u64>,
    /// Completed transfers observed.
    pub dma_ends: u64,
    /// Sum of `DmaEnd.queued_ps`.
    pub dma_queued_ps: u64,
    /// Ready→compute-start gaps observed.
    pub starts: u64,
    /// Sum of those gaps, ps.
    pub ready_wait_ps: u64,
}

impl TraceSink for WaitSink {
    fn emit(&mut self, ev: TraceEvent) {
        match ev.kind {
            EventKind::TaskReady { task, .. } => {
                self.ready_at.insert((task.instance, task.node), ev.at_ps);
            }
            EventKind::ComputeStart { task, .. } => {
                if let Some(at) = self.ready_at.remove(&(task.instance, task.node)) {
                    self.starts += 1;
                    self.ready_wait_ps += ev.at_ps.saturating_sub(at);
                }
            }
            EventKind::DmaEnd { queued_ps, .. } => {
                self.dma_ends += 1;
                self.dma_queued_ps += queued_ps;
            }
            _ => {}
        }
    }
}

/// Pops one hold-model pass dispatches.
pub const HOLD_POPS: u64 = 2_000_000;

/// Events the hold model keeps pending.
const HOLD_HELD: u64 = 4096;

/// The event-queue hold model on the public `EventQueue`: ~4096 events
/// stay pending while whole same-time cohorts are drained and refilled one
/// push per pop. A quarter of pushes join an already pending time, 1/64
/// land far in the future, the rest spread over the near term, which is
/// the shape of simulator traffic. Returns host ns per dispatched event.
#[must_use]
pub fn queue_hold_ns_per_event(pops: u64) -> f64 {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut rng = SplitMix64::new(0xC0_0407);
    let mut last_at = 0u64;
    let mut pushed = 0u64;
    let mut push = |q: &mut EventQueue<u32>, now: u64| {
        let r = rng.next_u64();
        let delta = if r.is_multiple_of(64) {
            1_000_000_000 + (r >> 8) % 1_000_000_000
        } else if r.is_multiple_of(4) {
            0
        } else {
            1 + (r >> 8) % 50_000
        };
        if delta > 0 {
            last_at = now + delta;
        }
        q.push(Time::from_ps(last_at), (pushed & 0xFFFF) as u32);
        pushed += 1;
    };
    for _ in 0..HOLD_HELD {
        push(&mut q, 0);
    }
    let mut cohort = Vec::new();
    let mut dispatched = 0u64;
    let t0 = Instant::now();
    while dispatched < pops {
        let Some(at) = q.pop_cohort(&mut cohort) else {
            break;
        };
        for &e in &cohort {
            q.mark_dispatched(at);
            std::hint::black_box(e);
        }
        dispatched += cohort.len() as u64;
        for _ in 0..cohort.len() {
            push(&mut q, at.as_ps());
        }
    }
    t0.elapsed().as_nanos() as f64 / dispatched.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::default();
        log.span("outer", None, |log| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            log.folded_child("inner", Some(0), 1_000_000);
        });
        let own = log.self_ns();
        assert_eq!(log.spans().len(), 2);
        assert_eq!(log.spans()[1].parent, Some(0));
        assert_eq!(own[1], 1_000_000);
        assert_eq!(own[0], log.spans()[0].dur_ns() - 1_000_000);
        let json = log.to_chrome_json("w");
        assert!(json.contains("\"name\":\"inner\""), "{json}");
    }

    #[test]
    fn hold_model_dispatches() {
        assert!(queue_hold_ns_per_event(10_000) > 0.0);
    }
}
