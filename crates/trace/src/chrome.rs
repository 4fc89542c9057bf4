//! Chrome/Perfetto `trace.json` export.
//!
//! Produces the Trace Event Format consumed by `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev): a JSON object with a
//! `traceEvents` array of complete (`"ph":"X"`) and instant (`"ph":"i"`)
//! events. The writer is hand-rolled — no serde — and emits timestamps in
//! microseconds as exact decimals of the picosecond event times, so the
//! output is deterministic byte-for-byte.
//!
//! Track layout:
//!
//! * **pid 1 "accelerators"** — one thread per accelerator instance;
//!   compute spans plus write-back/input-sourcing instants.
//! * **pid 2 "memory"** — one thread per DMA engine with transfer spans,
//!   plus a DRAM-channel occupancy thread.
//! * **pid 3 "scheduler"** — policy decision instants (escalations,
//!   feasibility verdicts, queue bypasses), application arrival/completion
//!   instants, and manager occupancy spans.

use crate::event::{Endpoint, EventKind, ResourceId, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write;

const PID_ACCEL: u32 = 1;
const PID_MEM: u32 = 2;
const PID_SCHED: u32 = 3;

/// Thread ids on the memory process.
const TID_DRAM: u32 = 0;
const TID_DMA_BASE: u32 = 10;

/// Thread ids on the scheduler process.
const TID_DECISIONS: u32 = 0;
const TID_APPS: u32 = 1;
const TID_MANAGER: u32 = 2;

/// Options for [`to_chrome_json`].
#[derive(Debug, Clone, Default)]
pub struct ChromeOptions {
    /// Display names for accelerator instances, indexed by instance id.
    /// Instances beyond the list fall back to `acc<i>`.
    pub accel_names: Vec<String>,
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Formats picoseconds as an exact microsecond decimal (`ps / 1e6`).
fn us(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

struct Writer {
    out: String,
    first: bool,
}

impl Writer {
    fn new() -> Self {
        Writer { out: String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"), first: true }
    }

    /// Appends one raw JSON object (without surrounding comma handling).
    fn push(&mut self, obj: &str) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str(obj);
    }

    fn meta_process(&mut self, pid: u32, name: &str) {
        let mut o = format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\""
        );
        escape_into(&mut o, name);
        o.push_str("\"}}");
        self.push(&o);
    }

    fn meta_thread(&mut self, pid: u32, tid: u32, name: &str) {
        let mut o = format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\""
        );
        escape_into(&mut o, name);
        o.push_str("\"}}");
        self.push(&o);
    }

    fn complete(&mut self, pid: u32, tid: u32, name: &str, start_ps: u64, end_ps: u64, args: &str) {
        let mut o = String::from("{\"ph\":\"X\",\"pid\":");
        let _ = write!(
            o,
            "{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\"name\":\"",
            us(start_ps),
            us(end_ps.saturating_sub(start_ps))
        );
        escape_into(&mut o, name);
        o.push_str("\",\"args\":{");
        o.push_str(args);
        o.push_str("}}");
        self.push(&o);
    }

    fn instant(&mut self, pid: u32, tid: u32, name: &str, at_ps: u64, args: &str) {
        let mut o = String::from("{\"ph\":\"i\",\"s\":\"t\",\"pid\":");
        let _ = write!(o, "{pid},\"tid\":{tid},\"ts\":{},\"name\":\"", us(at_ps));
        escape_into(&mut o, name);
        o.push_str("\",\"args\":{");
        o.push_str(args);
        o.push_str("}}");
        self.push(&o);
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

fn route_name(src: Endpoint, dst: Endpoint) -> &'static str {
    match (src, dst) {
        (Endpoint::Dram, _) => "dram-read",
        (_, Endpoint::Dram) => "dram-write",
        _ => "spad-to-spad",
    }
}

/// Serializes an event stream into Chrome Trace Event Format JSON.
///
/// The output opens in `chrome://tracing` or Perfetto directly. Events
/// keep their stream order; metadata records naming the processes and
/// threads come first.
#[must_use]
pub fn to_chrome_json(events: &[TraceEvent], opts: &ChromeOptions) -> String {
    let mut w = Writer::new();

    // Discover which accelerator instances and DMA engines appear so
    // metadata only names real tracks.
    let mut insts: BTreeMap<u32, ()> = BTreeMap::new();
    let mut dmas: BTreeMap<u32, ()> = BTreeMap::new();
    for ev in events {
        match &ev.kind {
            EventKind::TaskDispatched { inst, .. }
            | EventKind::ComputeStart { inst, .. }
            | EventKind::ComputeEnd { inst, .. }
            | EventKind::InputSourced { inst, .. }
            | EventKind::WritebackIssued { inst, .. }
            | EventKind::TaskFaulted { inst, .. }
            | EventKind::UnitQuarantined { inst, .. }
            | EventKind::UnitRestored { inst, .. } => {
                insts.insert(*inst, ());
            }
            EventKind::DmaStart { dma, .. } | EventKind::DmaEnd { dma, .. } => {
                dmas.insert(*dma, ());
            }
            _ => {}
        }
    }

    w.meta_process(PID_ACCEL, "accelerators");
    w.meta_process(PID_MEM, "memory");
    w.meta_process(PID_SCHED, "scheduler");
    for (&i, ()) in &insts {
        let fallback = format!("acc{i}");
        let name = opts.accel_names.get(i as usize).map(String::as_str).unwrap_or(&fallback);
        w.meta_thread(PID_ACCEL, i, name);
    }
    w.meta_thread(PID_MEM, TID_DRAM, "dram-channel");
    for (&d, ()) in &dmas {
        w.meta_thread(PID_MEM, TID_DMA_BASE + d, &format!("dma{d}"));
    }
    w.meta_thread(PID_SCHED, TID_DECISIONS, "decisions");
    w.meta_thread(PID_SCHED, TID_APPS, "applications");
    w.meta_thread(PID_SCHED, TID_MANAGER, "manager");

    for ev in events {
        let at = ev.at_ps;
        match &ev.kind {
            EventKind::EventDispatched { .. } => {} // too dense to chart
            EventKind::ResourceBusy { resource, start_ps, end_ps } => {
                let (pid, tid) = match resource {
                    ResourceId::Manager => (PID_SCHED, TID_MANAGER),
                    ResourceId::Dram => (PID_MEM, TID_DRAM),
                    ResourceId::Dma(d) => (PID_MEM, TID_DMA_BASE + d),
                    ResourceId::IcnLane(l) => (PID_MEM, 100 + l),
                    ResourceId::SpadPort(p) => (PID_MEM, 200 + p),
                };
                w.complete(pid, tid, "busy", *start_ps, *end_ps, "");
            }
            EventKind::DmaStart { .. } => {} // spans are drawn at DmaEnd
            EventKind::DmaEnd { xfer, dma, src, dst, bytes, start_ps, queued_ps } => {
                let args = format!(
                    "\"xfer\":{xfer},\"bytes\":{bytes},\"queued_us\":{},\"route\":\"{src}->{dst}\"",
                    us(*queued_ps)
                );
                w.complete(
                    PID_MEM,
                    TID_DMA_BASE + dma,
                    route_name(*src, *dst),
                    *start_ps,
                    at,
                    &args,
                );
            }
            EventKind::EscalationGranted { task, acc, index } => {
                let args = format!("\"task\":\"{task}\",\"acc\":{acc},\"index\":{index}");
                w.instant(PID_SCHED, TID_DECISIONS, "escalation-granted", at, &args);
            }
            EventKind::EscalationDenied { task, acc, reason } => {
                let args = format!("\"task\":\"{task}\",\"acc\":{acc},\"reason\":\"{reason}\"");
                w.instant(PID_SCHED, TID_DECISIONS, "escalation-denied", at, &args);
            }
            EventKind::FeasibilityCheck { task, acc, index, feasible } => {
                let args = format!(
                    "\"task\":\"{task}\",\"acc\":{acc},\"index\":{index},\"feasible\":{feasible}"
                );
                w.instant(PID_SCHED, TID_DECISIONS, "feasibility-check", at, &args);
            }
            EventKind::QueueBypass { task, acc, skipped } => {
                let args = format!("\"task\":\"{task}\",\"acc\":{acc},\"skipped\":{skipped}");
                w.instant(PID_SCHED, TID_DECISIONS, "queue-bypass", at, &args);
            }
            EventKind::DagArrived { instance, app, nodes } => {
                let mut args = format!("\"instance\":{instance},\"nodes\":{nodes},\"app\":\"");
                escape_into(&mut args, app);
                args.push('"');
                w.instant(PID_SCHED, TID_APPS, "dag-arrival", at, &args);
            }
            EventKind::TaskReady { task, acc } => {
                let args = format!("\"task\":\"{task}\",\"acc\":{acc}");
                w.instant(PID_SCHED, TID_DECISIONS, "task-ready", at, &args);
            }
            EventKind::TaskDispatched { .. } | EventKind::ComputeStart { .. } => {
                // Subsumed by the ComputeEnd span.
            }
            EventKind::InputSourced { task, inst, source, bytes, .. } => {
                let args = format!("\"task\":\"{task}\",\"source\":\"{source}\",\"bytes\":{bytes}");
                w.instant(PID_ACCEL, *inst, "input", at, &args);
            }
            EventKind::ComputeEnd { task, inst, start_ps, app, forwarded_inputs, colocated_inputs } => {
                let args = format!(
                    "\"task\":\"{task}\",\"forwarded_inputs\":{forwarded_inputs},\"colocated_inputs\":{colocated_inputs}"
                );
                let label = format!("{app}:n{}", task.node);
                w.complete(PID_ACCEL, *inst, &label, *start_ps, at, &args);
            }
            EventKind::WritebackIssued { task, inst, bytes, lazy } => {
                let args = format!("\"task\":\"{task}\",\"bytes\":{bytes},\"lazy\":{lazy}");
                w.instant(PID_ACCEL, *inst, "writeback", at, &args);
            }
            EventKind::DagDone { instance, met } => {
                let args = format!("\"instance\":{instance},\"met\":{met}");
                w.instant(PID_SCHED, TID_APPS, "dag-done", at, &args);
            }
            EventKind::TaskFaulted { task, inst, attempt } => {
                let args = format!("\"task\":\"{task}\",\"attempt\":{attempt}");
                w.instant(PID_ACCEL, *inst, "task-fault", at, &args);
            }
            EventKind::TaskRetried { task, acc, attempt } => {
                let args = format!("\"task\":\"{task}\",\"acc\":{acc},\"attempt\":{attempt}");
                w.instant(PID_SCHED, TID_DECISIONS, "task-retry", at, &args);
            }
            EventKind::TaskAborted { task, attempts } => {
                let args = format!("\"task\":\"{task}\",\"attempts\":{attempts}");
                w.instant(PID_SCHED, TID_APPS, "task-abort", at, &args);
            }
            EventKind::DmaFaulted { task, parent, bytes, attempt } => {
                let mut args = format!("\"task\":\"{task}\",\"bytes\":{bytes},\"attempt\":{attempt}");
                if let Some(p) = parent {
                    let _ = write!(args, ",\"parent\":\"{p}\"");
                }
                w.instant(PID_MEM, TID_DRAM, "dma-fault", at, &args);
            }
            EventKind::UnitQuarantined { inst, until_ps } => {
                let args = format!("\"until_us\":{}", us(*until_ps));
                w.instant(PID_ACCEL, *inst, "unit-quarantine", at, &args);
            }
            EventKind::UnitRestored { inst } => {
                w.instant(PID_ACCEL, *inst, "unit-restore", at, "");
            }
            EventKind::FaultAttributedMiss { instance, faults } => {
                let args = format!("\"instance\":{instance},\"faults\":{faults}");
                w.instant(PID_SCHED, TID_APPS, "fault-miss", at, &args);
            }
            EventKind::StreamArrival { tenant, index, class } => {
                let args = format!("\"tenant\":{tenant},\"index\":{index},\"class\":\"{class}\"");
                w.instant(PID_SCHED, TID_APPS, "stream-arrival", at, &args);
            }
            EventKind::RequestAdmitted { tenant, index, instance } => {
                let args =
                    format!("\"tenant\":{tenant},\"index\":{index},\"instance\":{instance}");
                w.instant(PID_SCHED, TID_APPS, "request-admit", at, &args);
            }
            EventKind::RequestShed { tenant, index, class, cause } => {
                let args = format!(
                    "\"tenant\":{tenant},\"index\":{index},\"class\":\"{class}\",\"cause\":\"{cause}\""
                );
                w.instant(PID_SCHED, TID_APPS, "request-shed", at, &args);
            }
            EventKind::RequestCompleted { tenant, instance, class, sojourn_ps, met } => {
                let args = format!(
                    "\"tenant\":{tenant},\"instance\":{instance},\"class\":\"{class}\",\"sojourn_us\":{},\"met\":{met}",
                    us(*sojourn_ps)
                );
                w.instant(PID_SCHED, TID_APPS, "request-complete", at, &args);
            }
            EventKind::DmaCancelled { xfer, dma, src, dst, bytes } => {
                let args = format!(
                    "\"xfer\":{xfer},\"bytes\":{bytes},\"route\":\"{src}->{dst}\""
                );
                w.instant(PID_MEM, TID_DMA_BASE + dma, "dma-cancel", at, &args);
            }
            EventKind::ChannelOutage { start_ps, end_ps } => {
                w.complete(PID_MEM, TID_DRAM, "channel-outage", *start_ps, *end_ps, "");
            }
            EventKind::EccCorrupted { task, parent, attempt } => {
                let args = format!(
                    "\"task\":\"{task}\",\"parent\":\"{parent}\",\"attempt\":{attempt}"
                );
                w.instant(PID_MEM, TID_DRAM, "ecc-corrupt", at, &args);
            }
            EventKind::RequestTimedOut { tenant, instance, class, attempt } => {
                let args = format!(
                    "\"tenant\":{tenant},\"instance\":{instance},\"class\":\"{class}\",\"attempt\":{attempt}"
                );
                w.instant(PID_SCHED, TID_APPS, "request-timeout", at, &args);
            }
            EventKind::HedgeLaunched { tenant, instance, attempt } => {
                let args =
                    format!("\"tenant\":{tenant},\"instance\":{instance},\"attempt\":{attempt}");
                w.instant(PID_SCHED, TID_APPS, "hedge-launch", at, &args);
            }
            EventKind::BreakerOpened { tenant, failures } => {
                let args = format!("\"tenant\":{tenant},\"failures\":{failures}");
                w.instant(PID_SCHED, TID_APPS, "breaker-open", at, &args);
            }
            EventKind::BreakerHalfOpen { tenant } => {
                let args = format!("\"tenant\":{tenant}");
                w.instant(PID_SCHED, TID_APPS, "breaker-half-open", at, &args);
            }
            EventKind::BreakerClosed { tenant, open_ps } => {
                let args = format!("\"tenant\":{tenant},\"open_us\":{}", us(*open_ps));
                w.instant(PID_SCHED, TID_APPS, "breaker-close", at, &args);
            }
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DenyReason, InputSource, QosClass, ShedCause, TaskRef};
    use crate::kind::Kind;

    /// A minimal JSON well-formedness checker (objects, arrays, strings,
    /// numbers, booleans, null) for the exporter's tests: not a full
    /// validator, but strict enough to catch unbalanced structure, bad
    /// escapes, and trailing garbage.
    fn is_well_formed_json(s: &str) -> bool {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        let ok = parse_value(bytes, &mut pos);
        skip_ws(bytes, &mut pos);
        ok && pos == bytes.len()
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> bool {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => parse_string(b, pos),
            Some(b't') => parse_lit(b, pos, b"true"),
            Some(b'f') => parse_lit(b, pos, b"false"),
            Some(b'n') => parse_lit(b, pos, b"null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
            _ => false,
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
        if b.len() - *pos >= lit.len() && &b[*pos..*pos + lit.len()] == lit {
            *pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> bool {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        let digits = |b: &[u8], pos: &mut usize| {
            let s = *pos;
            while *pos < b.len() && b[*pos].is_ascii_digit() {
                *pos += 1;
            }
            *pos > s
        };
        if !digits(b, pos) {
            return false;
        }
        if b.get(*pos) == Some(&b'.') {
            *pos += 1;
            if !digits(b, pos) {
                return false;
            }
        }
        if matches!(b.get(*pos), Some(b'e' | b'E')) {
            *pos += 1;
            if matches!(b.get(*pos), Some(b'+' | b'-')) {
                *pos += 1;
            }
            if !digits(b, pos) {
                return false;
            }
        }
        *pos > start
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> bool {
        debug_assert_eq!(b.get(*pos), Some(&b'"'));
        *pos += 1;
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return true;
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                        Some(b'u') => {
                            let short = b.len() - *pos < 5;
                            if short || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit) {
                                return false;
                            }
                            *pos += 5;
                        }
                        _ => return false,
                    }
                }
                c if c < 0x20 => return false,
                _ => *pos += 1,
            }
        }
        false
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> bool {
        *pos += 1; // '{'
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return true;
        }
        loop {
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b'"') || !parse_string(b, pos) {
                return false;
            }
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return false;
            }
            *pos += 1;
            if !parse_value(b, pos) {
                return false;
            }
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return true;
                }
                _ => return false,
            }
        }
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> bool {
        *pos += 1; // '['
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return true;
        }
        loop {
            if !parse_value(b, pos) {
                return false;
            }
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return true;
                }
                _ => return false,
            }
        }
    }

    #[test]
    fn json_checker_accepts_and_rejects() {
        assert!(is_well_formed_json("{\"a\":[1,2.5,-3e4,\"x\\n\",true,null]}"));
        assert!(is_well_formed_json("[]"));
        assert!(!is_well_formed_json("{\"a\":}"));
        assert!(!is_well_formed_json("[1,2"));
        assert!(!is_well_formed_json("{\"a\":1} trailing"));
        assert!(!is_well_formed_json("\"bad\\escape\""));
    }

    #[test]
    fn exact_microsecond_formatting() {
        assert_eq!(us(0), "0.000000");
        assert_eq!(us(1), "0.000001");
        assert_eq!(us(1_500_000), "1.500000");
        assert_eq!(us(123_456_789), "123.456789");
    }

    #[test]
    fn export_is_well_formed_and_tracked() {
        let events = vec![
            TraceEvent {
                at_ps: 30_000_000,
                kind: EventKind::ComputeEnd {
                    task: TaskRef { instance: 0, node: 0 },
                    inst: 1,
                    start_ps: 10_000_000,
                    app: "A".into(),
                    forwarded_inputs: 0,
                    colocated_inputs: 1,
                },
            },
            TraceEvent {
                at_ps: 5_000_000,
                kind: EventKind::EscalationGranted {
                    task: TaskRef { instance: 0, node: 1 },
                    acc: 0,
                    index: 0,
                },
            },
        ];
        let json = to_chrome_json(&events, &ChromeOptions::default());
        assert!(is_well_formed_json(&json), "exporter must emit valid JSON:\n{json}");
        assert!(json.contains("\"escalation-granted\""));
        assert!(json.contains("\"A:n0\""));
        assert!(json.contains("\"ts\":10.000000,\"dur\":20.000000"));
    }

    #[test]
    fn names_are_escaped() {
        let events = vec![TraceEvent {
            at_ps: 0,
            kind: EventKind::DagArrived { instance: 0, app: "we\"ird\\app".into(), nodes: 1 },
        }];
        let json = to_chrome_json(&events, &ChromeOptions::default());
        assert!(is_well_formed_json(&json), "{json}");
        assert!(json.contains("we\\\"ird\\\\app"));
    }

    /// One event of every kind, with non-zero payloads.
    fn one_of_each_kind() -> Vec<EventKind> {
        let task = TaskRef { instance: 1, node: 2 };
        let parent = TaskRef { instance: 1, node: 0 };
        let class = QosClass::Standard;
        let (src, dst) = (Endpoint::Dram, Endpoint::Spad(1));
        vec![
            EventKind::EventDispatched { index: 1 },
            EventKind::ResourceBusy { resource: ResourceId::Dram, start_ps: 1, end_ps: 2 },
            EventKind::DmaStart { xfer: 1, dma: 0, src, dst, bytes: 8 },
            EventKind::DmaEnd { xfer: 1, dma: 0, src, dst, bytes: 8, start_ps: 1, queued_ps: 1 },
            EventKind::DmaCancelled { xfer: 1, dma: 0, src, dst, bytes: 8 },
            EventKind::ChannelOutage { start_ps: 1, end_ps: 2 },
            EventKind::EscalationGranted { task, acc: 0, index: 1 },
            EventKind::EscalationDenied { task, acc: 0, reason: DenyReason::Infeasible },
            EventKind::FeasibilityCheck { task, acc: 0, index: 1, feasible: true },
            EventKind::QueueBypass { task, acc: 0, skipped: 1 },
            EventKind::DagArrived { instance: 1, app: "C".into(), nodes: 3 },
            EventKind::TaskReady { task, acc: 0 },
            EventKind::TaskDispatched { task, inst: 1 },
            EventKind::InputSourced {
                task,
                inst: 1,
                parent: Some(parent),
                source: InputSource::Colocated,
                bytes: 8,
            },
            EventKind::ComputeStart { task, inst: 1 },
            EventKind::ComputeEnd {
                task,
                inst: 1,
                start_ps: 1,
                app: "C".into(),
                forwarded_inputs: 1,
                colocated_inputs: 0,
            },
            EventKind::WritebackIssued { task, inst: 1, bytes: 8, lazy: true },
            EventKind::DagDone { instance: 1, met: true },
            EventKind::TaskFaulted { task, inst: 1, attempt: 0 },
            EventKind::TaskRetried { task, acc: 0, attempt: 1 },
            EventKind::TaskAborted { task, attempts: 2 },
            EventKind::DmaFaulted { task, parent: Some(parent), bytes: 8, attempt: 0 },
            EventKind::UnitQuarantined { inst: 1, until_ps: 2 },
            EventKind::UnitRestored { inst: 1 },
            EventKind::FaultAttributedMiss { instance: 1, faults: 1 },
            EventKind::EccCorrupted { task, parent, attempt: 0 },
            EventKind::StreamArrival { tenant: 0, index: 1, class },
            EventKind::RequestAdmitted { tenant: 0, index: 1, instance: 1 },
            EventKind::RequestShed { tenant: 0, index: 1, class, cause: ShedCause::Bucket },
            EventKind::RequestCompleted { tenant: 0, instance: 1, class, sojourn_ps: 1, met: true },
            EventKind::RequestTimedOut { tenant: 0, instance: 1, class, attempt: 0 },
            EventKind::HedgeLaunched { tenant: 0, instance: 1, attempt: 1 },
            EventKind::BreakerOpened { tenant: 0, failures: 3 },
            EventKind::BreakerHalfOpen { tenant: 0 },
            EventKind::BreakerClosed { tenant: 0, open_ps: 1 },
        ]
    }

    #[test]
    fn every_kind_exports_well_formed_json() {
        let samples = one_of_each_kind();
        assert_eq!(samples.len(), Kind::ALL.len());
        let events: Vec<TraceEvent> = samples
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent { at_ps: 1_000 * i as u64, kind })
            .collect();
        let json = to_chrome_json(&events, &ChromeOptions::default());
        assert!(is_well_formed_json(&json), "exporter must emit valid JSON:\n{json}");
    }
}
