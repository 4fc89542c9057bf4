//! Bus and crossbar interconnect models.

use crate::config::InterconnectKind;
use relief_sim::{Dur, Time};

/// Endpoint index used by the interconnect: port 0 is the DRAM controller,
/// ports `1 + i` are accelerator scratchpads.
fn port_of(spad: Option<usize>) -> usize {
    match spad {
        None => 0,
        Some(i) => 1 + i,
    }
}

/// The system interconnect.
///
/// * **Bus** (default): one lane per direction of a full-duplex bus.
///   Transfers *toward* memory use the write lane; reads from memory and
///   scratchpad-to-scratchpad forwards use the read lane.
/// * **Crossbar**: a port per source and per destination; independent
///   producer/consumer pairs proceed concurrently and only endpoint ports
///   serialize.
///
/// Each lane or port is a plain free-at instant: nothing reads a single
/// lane's busy time. Occupancy (Fig. 13: "percentage of cycles for which
/// the interconnect had at least one transaction going through") is
/// tracked as the union of all booked intervals with a monotone
/// watermark, which is exact for the engine's in-order chunk issue.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct Interconnect {
    kind: InterconnectKind,
    lane_read: Time,
    lane_write: Time,
    src_ports: Vec<Time>,
    dst_ports: Vec<Time>,
    covered_until: Time,
    union_busy: Dur,
}

impl Interconnect {
    /// Creates an interconnect of `kind` connecting DRAM and `num_spads`
    /// scratchpads.
    pub fn new(kind: InterconnectKind, num_spads: usize) -> Self {
        let ports = 1 + num_spads;
        Interconnect {
            kind,
            lane_read: Time::ZERO,
            lane_write: Time::ZERO,
            src_ports: vec![Time::ZERO; ports],
            dst_ports: vec![Time::ZERO; ports],
            covered_until: Time::ZERO,
            union_busy: Dur::ZERO,
        }
    }

    /// Topology kind.
    pub fn kind(&self) -> InterconnectKind {
        self.kind
    }

    /// Earliest instant at or after `now` when every lane a `src -> dst`
    /// transaction needs is free. Endpoints are `None` for DRAM and
    /// `Some(i)` for scratchpad `i`.
    pub fn earliest_start(&self, src: Option<usize>, dst: Option<usize>, now: Time) -> Time {
        match self.kind {
            InterconnectKind::Bus => {
                now.max(if dst.is_none() { self.lane_write } else { self.lane_read })
            }
            InterconnectKind::Crossbar => {
                now.max(self.src_ports[port_of(src)]).max(self.dst_ports[port_of(dst)])
            }
        }
    }

    /// Books every lane of a `src -> dst` transaction over
    /// `[start, start + dur)` (`start` at or after
    /// [`earliest_start`](Self::earliest_start)) and adds the interval to
    /// the union occupancy.
    pub fn book(&mut self, src: Option<usize>, dst: Option<usize>, start: Time, dur: Dur) {
        let end = start + dur;
        match self.kind {
            InterconnectKind::Bus => {
                if dst.is_none() {
                    self.lane_write = end;
                } else {
                    self.lane_read = end;
                }
            }
            InterconnectKind::Crossbar => {
                self.src_ports[port_of(src)] = end;
                self.dst_ports[port_of(dst)] = end;
            }
        }
        self.note_busy(start, end);
    }

    /// The free-at instants of the lanes a `src -> dst` transaction holds,
    /// boxed: the reference chunk path's lane selection, written apart
    /// from [`earliest_start`](Self::earliest_start) and
    /// [`book`](Self::book) so the two can be checked against each other.
    #[cfg(test)]
    pub(crate) fn lanes_mut(&mut self, src: Option<usize>, dst: Option<usize>) -> Vec<&mut Time> {
        match self.kind {
            InterconnectKind::Bus if dst.is_none() => vec![&mut self.lane_write],
            InterconnectKind::Bus => vec![&mut self.lane_read],
            InterconnectKind::Crossbar => {
                vec![&mut self.src_ports[port_of(src)], &mut self.dst_ports[port_of(dst)]]
            }
        }
    }

    /// Records that the interconnect carried a transaction over
    /// `[start, end)` for union-occupancy accounting.
    pub fn note_busy(&mut self, start: Time, end: Time) {
        let s = start.max(self.covered_until);
        if end > s {
            self.union_busy += end - s;
            self.covered_until = end;
        }
    }

    /// Union busy time across all lanes/ports.
    pub fn busy(&self) -> Dur {
        self.union_busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Books one `src -> dst` transaction of `dur` at its earliest start,
    /// returning that start.
    fn transact(icn: &mut Interconnect, src: Option<usize>, dst: Option<usize>, dur: Dur) -> Time {
        let start = icn.earliest_start(src, dst, Time::ZERO);
        icn.book(src, dst, start, dur);
        start
    }

    #[test]
    fn bus_directions_are_independent() {
        let mut icn = Interconnect::new(InterconnectKind::Bus, 2);
        let d = Dur::from_ns(100);
        transact(&mut icn, Some(0), None, d); // SPAD0 -> DRAM (write lane)
        // A simultaneous read-direction transfer does not queue.
        assert_eq!(transact(&mut icn, None, Some(1), d), Time::ZERO);
        // But a second write-direction transfer does.
        assert_eq!(transact(&mut icn, Some(1), None, d), Time::from_ns(100));
    }

    #[test]
    fn bus_serializes_spad_to_spad_with_reads() {
        let mut icn = Interconnect::new(InterconnectKind::Bus, 3);
        let d = Dur::from_ns(50);
        transact(&mut icn, None, Some(0), d);
        // SPAD1 -> SPAD2 shares the read lane.
        assert_eq!(transact(&mut icn, Some(1), Some(2), d), Time::from_ns(50));
    }

    #[test]
    fn crossbar_allows_disjoint_pairs_concurrently() {
        let mut icn = Interconnect::new(InterconnectKind::Crossbar, 4);
        let d = Dur::from_ns(50);
        assert_eq!(transact(&mut icn, Some(0), Some(1), d), Time::ZERO);
        // Disjoint pair: no contention.
        assert_eq!(transact(&mut icn, Some(2), Some(3), d), Time::ZERO);
        // Shared destination port: serializes.
        assert_eq!(transact(&mut icn, Some(2), Some(1), d), Time::from_ns(50));
    }

    #[test]
    fn booking_notes_union_occupancy() {
        let mut icn = Interconnect::new(InterconnectKind::Crossbar, 4);
        let d = Dur::from_ns(50);
        transact(&mut icn, Some(0), Some(1), d);
        transact(&mut icn, Some(2), Some(3), d); // concurrent: no new cover
        transact(&mut icn, Some(2), Some(1), d);
        assert_eq!(icn.busy(), Dur::from_ns(100));
    }

    #[test]
    fn union_busy_merges_overlaps() {
        let mut icn = Interconnect::new(InterconnectKind::Bus, 1);
        icn.note_busy(Time::from_ns(0), Time::from_ns(10));
        icn.note_busy(Time::from_ns(5), Time::from_ns(15)); // 5ns overlap
        icn.note_busy(Time::from_ns(20), Time::from_ns(30));
        assert_eq!(icn.busy(), Dur::from_ns(25));
    }

    #[test]
    fn note_busy_ignores_fully_covered_intervals() {
        let mut icn = Interconnect::new(InterconnectKind::Bus, 1);
        icn.note_busy(Time::from_ns(0), Time::from_ns(100));
        icn.note_busy(Time::from_ns(10), Time::from_ns(50));
        assert_eq!(icn.busy(), Dur::from_ns(100));
    }
}
