//! Chunked DMA transfers through the memory system.

use crate::config::MemConfig;
use crate::interconnect::Interconnect;
#[cfg(test)]
use relief_sim::timeline::reserve_joint;
use relief_sim::{Dur, SlotAlloc, Time, Timeline};
use relief_trace::{Endpoint, EventKind, ResourceId, Tracer};
use std::fmt;

/// A transfer endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// The main-memory channel.
    Dram,
    /// The scratchpad of accelerator instance `i`.
    Spad(usize),
}

impl Port {
    #[cfg(test)]
    fn spad_index(self) -> Option<usize> {
        match self {
            Port::Dram => None,
            Port::Spad(i) => Some(i),
        }
    }

    fn endpoint(self) -> Endpoint {
        match self {
            Port::Dram => Endpoint::Dram,
            Port::Spad(i) => Endpoint::Spad(i as u32),
        }
    }
}

/// Source and destination of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Route {
    /// Where bytes are read from.
    pub src: Port,
    /// Where bytes are written to.
    pub dst: Port,
}

impl Route {
    /// True when the route touches main memory.
    pub fn uses_dram(&self) -> bool {
        self.src == Port::Dram || self.dst == Port::Dram
    }

    /// True for a scratchpad-to-scratchpad forward.
    pub fn is_forward(&self) -> bool {
        matches!((self.src, self.dst), (Port::Spad(_), Port::Spad(_)))
    }
}

/// Handle for an in-flight transfer: a dense arena slot plus the
/// generation under which it was allocated. Slots are reused after
/// completion (free-list), so the generation is what distinguishes a
/// live handle from a stale one — debug builds assert on every
/// [`TransferEngine::on_chunk_done`] that the handle's generation still
/// matches the slot's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransferId {
    slot: u32,
    generation: u32,
}

impl TransferId {
    /// Dense arena slot index, `< TransferEngine::slots()` for a live
    /// handle. Callers may keep their own per-transfer side data in
    /// slot-indexed columns (the accelerator simulator keys transfer
    /// purposes this way) instead of a map.
    #[must_use]
    pub fn slot(self) -> usize {
        self.slot as usize
    }
}

impl fmt::Display for TransferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xfer{}g{}", self.slot, self.generation)
    }
}

/// Outcome of driving a transfer by one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// Another chunk was issued; it completes at the given instant.
    Chunk(Time),
    /// The transfer finished.
    Done {
        /// When the first chunk began service.
        start: Time,
        /// When the last chunk completed.
        end: Time,
        /// Total bytes moved.
        bytes: u64,
    },
}

/// Everything the per-chunk path reads and writes for one in-flight
/// transfer, packed into a single 48-byte row so a chunk event touches
/// one cache line of transfer state. Endpoints are stored compactly
/// (`-1` = DRAM, else the scratchpad index) — cheaper to test than the
/// `usize`-payload [`Port`] enum and a third the size.
#[derive(Debug, Clone, Copy)]
struct HotXfer {
    /// Source endpoint: `-1` for DRAM, else the scratchpad index.
    src: i32,
    /// Destination endpoint, same encoding as `src`.
    dst: i32,
    /// Driving DMA engine index.
    dma: u32,
    /// When the first chunk began service; `Time::MAX` until then.
    first_start: Time,
    /// Completion time of the latest chunk issued so far.
    last_end: Time,
    /// Accumulated time chunks waited before service began.
    queued: Dur,
    /// Bytes not yet issued as chunks.
    remaining: u64,
}

impl HotXfer {
    fn route(&self) -> Route {
        Route { src: port_from_compact(self.src), dst: port_from_compact(self.dst) }
    }
}

fn port_to_compact(p: Port) -> i32 {
    match p {
        Port::Dram => -1,
        Port::Spad(i) => i as i32,
    }
}

fn port_from_compact(x: i32) -> Port {
    if x < 0 { Port::Dram } else { Port::Spad(x as usize) }
}

/// `Some(spad index)` for a scratchpad endpoint in the compact
/// encoding, `None` for DRAM.
fn spad_of(x: i32) -> Option<usize> {
    if x < 0 { None } else { Some(x as usize) }
}

/// DRAM-channel blackout schedule: a lazily drawn stream of
/// `(down_ps, up_ps)` windows during which no new chunk may start on a
/// DRAM route. The feed is typically infinite (MTTF-derived, stateless
/// seeded — see `relief-fault`), so only the frontier window is held;
/// DRAM-route chunk starts are non-decreasing (each chunk reserves the
/// channel from its gated start), which is what lets the cursor advance
/// monotonically through the stream.
struct DramOutages {
    feed: Box<dyn Iterator<Item = (u64, u64)>>,
    /// The frontier window: every earlier window has already been passed.
    next: (u64, u64),
    /// Windows that actually delayed a chunk start.
    applied: u64,
}

impl fmt::Debug for DramOutages {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DramOutages")
            .field("next", &self.next)
            .field("applied", &self.applied)
            .finish_non_exhaustive()
    }
}

/// Pushes a chunk's start time past any DRAM blackout window covering it
/// and advances the window cursor. Free function over disjoint fields so
/// both chunk paths can call it while other engine fields are borrowed.
/// Emits one `ChannelOutage` trace record per window that delays a start.
fn gate_dram_start(outages: &mut Option<DramOutages>, tracer: &Tracer, mut start: Time) -> Time {
    let Some(o) = outages.as_mut() else { return start };
    loop {
        let (down, up) = o.next;
        if start.as_ps() < down {
            return start;
        }
        if start.as_ps() < up {
            o.applied += 1;
            tracer.emit(start.as_ps(), || EventKind::ChannelOutage { start_ps: down, end_ps: up });
            start = Time::from_ps(up);
        }
        // The window is behind the (possibly pushed) start; fetch the
        // next one and re-check — consecutive windows never overlap but
        // a long stall can skip several.
        o.next = o.feed.next().unwrap_or((u64::MAX, u64::MAX));
    }
}

/// Moves bytes along routes through the DRAM channel, the interconnect, and
/// per-accelerator DMA engines, one chunk at a time.
///
/// The caller owns event scheduling: [`begin`](TransferEngine::begin) issues
/// the first chunk and returns its completion time; each
/// [`on_chunk_done`](TransferEngine::on_chunk_done) issues the next chunk or
/// reports completion. Chunk-granularity issue is what lets concurrent
/// transfers share a resource fairly instead of serializing whole buffers.
///
/// In-flight transfer state lives in a slab arena indexed by the dense
/// slot of each [`TransferId`], split hot/cold: everything the per-chunk
/// path touches is packed into one `HotXfer` row (a single cache line
/// per transfer instead of one per field), while the begin/completion
/// metadata (`bytes`/`serial`) stays in parallel cold columns. Slots are
/// free-listed, so a steady-state run allocates nothing per transfer
/// once the arena reaches the concurrency high-water mark, and the
/// per-chunk lookup is a bounds check instead of a hash probe.
#[derive(Debug)]
pub struct TransferEngine {
    config: MemConfig,
    dram: Timeline,
    icn: Interconnect,
    dmas: Vec<Timeline>,
    /// Scratchpad read ports: concurrent forwards out of one producer's
    /// scratchpad serialize here (one read port per SPAD).
    spad_ports: Vec<Timeline>,
    /// Slot allocator for the transfer arena below.
    slots: SlotAlloc,
    /// Hot rows (read and written on every chunk event), slot-indexed.
    hot: Vec<HotXfer>,
    // Cold columns (touched only at begin and completion):
    bytes: Vec<u64>,
    serial: Vec<u64>,
    /// Monotonic transfer number emitted in `DmaStart`/`DmaEnd` trace
    /// records — the pre-arena sequential numbering, kept so traces stay
    /// byte-identical across slot reuse.
    next_serial: u64,
    /// Service durations of a full `chunk_bytes` chunk on the
    /// interconnect, a DMA engine, and the DRAM channel. Almost every
    /// chunk is full-sized, so precomputing these keeps the 128-bit
    /// bandwidth division off the per-chunk path.
    chunk_icn_dur: Dur,
    chunk_dma_dur: Dur,
    chunk_dram_dur: Dur,
    /// Routes chunk issue through
    /// [`issue_chunk_reference`](Self::issue_chunk_reference), the oracle
    /// the chunk-path tests compare against.
    #[cfg(test)]
    reference_alloc_path: bool,
    dram_read_bytes: u64,
    dram_write_bytes: u64,
    spad_to_spad_bytes: u64,
    /// Conservation ledger: bytes accepted by `begin`, bytes of transfers
    /// that ran to completion, and bytes of transfers cancelled mid-flight
    /// (full payloads in all three). At drain,
    /// `begun == completed + cancelled`.
    begun_bytes: u64,
    completed_bytes: u64,
    cancelled_bytes: u64,
    /// DRAM-channel blackout windows; `None` when the channel is perfect.
    dram_outages: Option<DramOutages>,
    tracer: Tracer,
}

impl TransferEngine {
    /// Creates an engine for `num_accs` accelerators.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(config: MemConfig, num_accs: usize) -> Self {
        config.validate();
        TransferEngine {
            icn: Interconnect::new(config.interconnect, num_accs),
            dmas: vec![Timeline::new(); num_accs],
            spad_ports: vec![Timeline::new(); num_accs],
            dram: Timeline::new(),
            slots: SlotAlloc::new(),
            hot: Vec::new(),
            bytes: Vec::new(),
            serial: Vec::new(),
            next_serial: 0,
            chunk_icn_dur: Dur::for_bytes(config.chunk_bytes, config.interconnect_bandwidth),
            chunk_dma_dur: Dur::for_bytes(config.chunk_bytes, config.dma_bandwidth),
            chunk_dram_dur: Dur::for_bytes(config.chunk_bytes, config.dram_bandwidth),
            #[cfg(test)]
            reference_alloc_path: false,
            config,
            dram_read_bytes: 0,
            dram_write_bytes: 0,
            spad_to_spad_bytes: 0,
            begun_bytes: 0,
            completed_bytes: 0,
            cancelled_bytes: 0,
            dram_outages: None,
            tracer: Tracer::off(),
        }
    }

    /// Installs a DRAM-channel blackout schedule: no new chunk may start
    /// on a DRAM route inside any `(down_ps, up_ps)` window. Windows must
    /// be non-overlapping and sorted; the feed may be infinite (only the
    /// frontier window is held).
    pub fn set_dram_outages(&mut self, mut windows: Box<dyn Iterator<Item = (u64, u64)>>) {
        let next = windows.next().unwrap_or((u64::MAX, u64::MAX));
        self.dram_outages = Some(DramOutages { feed: windows, next, applied: 0 });
    }

    /// How many blackout windows have actually delayed a chunk start.
    pub fn channel_outages_applied(&self) -> u64 {
        self.dram_outages.as_ref().map_or(0, |o| o.applied)
    }

    /// Per-chunk service durations for `chunk` bytes on the interconnect,
    /// a DMA engine, and the DRAM channel — precomputed for a full chunk,
    /// divided out only for the trailing partial chunk.
    fn chunk_durs(&self, chunk: u64) -> (Dur, Dur, Dur) {
        if chunk == self.config.chunk_bytes {
            (self.chunk_icn_dur, self.chunk_dma_dur, self.chunk_dram_dur)
        } else {
            (
                Dur::for_bytes(chunk, self.config.interconnect_bandwidth),
                Dur::for_bytes(chunk, self.config.dma_bandwidth),
                Dur::for_bytes(chunk, self.config.dram_bandwidth),
            )
        }
    }

    /// Attaches a tracer: transfers emit `DmaStart` / `DmaEnd` records and
    /// the DRAM channel timeline reports `ResourceBusy` occupancy.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.dram.set_tracer(tracer.clone(), ResourceId::Dram);
        self.tracer = tracer;
    }

    /// Starts a transfer of `bytes` along `route`, driven by accelerator
    /// `dma`'s engine. Returns the transfer id and the completion time of
    /// the first chunk (equal to `now` for zero-byte transfers).
    ///
    /// # Panics
    ///
    /// Panics if `dma` is out of range or the route connects DRAM to DRAM.
    pub fn begin(&mut self, route: Route, bytes: u64, dma: usize, now: Time) -> (TransferId, Time) {
        assert!(dma < self.dmas.len(), "dma index out of range");
        assert!(
            route.src != Port::Dram || route.dst != Port::Dram,
            "DRAM-to-DRAM transfers are not modeled"
        );
        let serial = self.next_serial;
        self.next_serial += 1;
        let (slot, generation) = self.slots.alloc();
        let s = slot as usize;
        let row = HotXfer {
            src: port_to_compact(route.src),
            dst: port_to_compact(route.dst),
            dma: dma as u32,
            first_start: Time::MAX,
            last_end: now,
            queued: Dur::ZERO,
            remaining: bytes,
        };
        if s == self.hot.len() {
            // First time this slot exists: grow the arena by one.
            self.hot.push(row);
            self.bytes.push(bytes);
            self.serial.push(serial);
        } else {
            // Free-list reuse: overwrite in place, no allocation.
            self.hot[s] = row;
            self.bytes[s] = bytes;
            self.serial[s] = serial;
        }
        self.tracer.emit(now.as_ps(), || EventKind::DmaStart {
            xfer: serial,
            dma: dma as u32,
            src: route.src.endpoint(),
            dst: route.dst.endpoint(),
            bytes,
        });
        match route {
            Route { src: Port::Dram, .. } => self.dram_read_bytes += bytes,
            Route { dst: Port::Dram, .. } => self.dram_write_bytes += bytes,
            _ => self.spad_to_spad_bytes += bytes,
        }
        self.begun_bytes += bytes;
        let first = self.issue_chunk(s, now);
        (TransferId { slot, generation }, first)
    }

    /// Advances a transfer after its previous chunk completed at `now`.
    ///
    /// # Panics
    ///
    /// Debug builds panic when `id` is stale (already completed — its
    /// slot was released, or released and reused at a newer generation).
    pub fn on_chunk_done(&mut self, id: TransferId, now: Time) -> Progress {
        self.slots.check(id.slot, id.generation);
        let s = id.slot as usize;
        let h = self.hot[s];
        if h.remaining == 0 {
            let start = if h.first_start == Time::MAX { h.last_end } else { h.first_start };
            let end = h.last_end;
            let bytes = self.bytes[s];
            let (route, serial) = (h.route(), self.serial[s]);
            self.tracer.emit(end.as_ps(), || EventKind::DmaEnd {
                xfer: serial,
                dma: h.dma,
                src: route.src.endpoint(),
                dst: route.dst.endpoint(),
                bytes,
                start_ps: start.as_ps(),
                queued_ps: h.queued.as_ps(),
            });
            self.slots.release(id.slot, id.generation);
            self.completed_bytes += bytes;
            return Progress::Done { start, end, bytes };
        }
        Progress::Chunk(self.issue_chunk(s, now))
    }

    /// Cancels an in-flight transfer: already-issued chunks keep their
    /// reservations (the bytes moved over the wire), the not-yet-issued
    /// remainder is rolled back from the route byte attribution, and the
    /// slot is released — no `DmaEnd` will be emitted. Returns the bytes
    /// actually moved (issued chunks). Used by ECC forwarding
    /// invalidation and request-timeout cancellation.
    ///
    /// # Panics
    ///
    /// Debug builds panic when `id` is stale (already completed or
    /// cancelled).
    pub fn cancel(&mut self, id: TransferId, now: Time) -> u64 {
        self.slots.check(id.slot, id.generation);
        let s = id.slot as usize;
        let h = self.hot[s];
        let total = self.bytes[s];
        let moved = total - h.remaining;
        let (route, serial) = (h.route(), self.serial[s]);
        match route {
            Route { src: Port::Dram, .. } => self.dram_read_bytes -= h.remaining,
            Route { dst: Port::Dram, .. } => self.dram_write_bytes -= h.remaining,
            _ => self.spad_to_spad_bytes -= h.remaining,
        }
        self.cancelled_bytes += total;
        self.tracer.emit(now.as_ps(), || EventKind::DmaCancelled {
            xfer: serial,
            dma: h.dma,
            src: route.src.endpoint(),
            dst: route.dst.endpoint(),
            bytes: moved,
        });
        self.slots.release(id.slot, id.generation);
        moved
    }

    /// True when `id` refers to a still-in-flight transfer — lets callers
    /// drop stale chunk events for transfers cancelled in the meantime.
    pub fn is_live(&self, id: TransferId) -> bool {
        self.slots.is_live(id.slot, id.generation)
    }

    /// Issues the next chunk of the transfer in slot `s`; returns its
    /// completion time.
    ///
    /// The correlated reservation mirrors
    /// [`reserve_joint`](relief_sim::timeline::reserve_joint): every
    /// involved resource starts at the latest availability across the set
    /// and is held for its own duration — but the resources are reserved
    /// through direct field borrows, so the per-chunk path allocates
    /// nothing, and the transfer state is read straight out of the hot
    /// arena columns.
    fn issue_chunk(&mut self, s: usize, now: Time) -> Time {
        #[cfg(test)]
        if self.reference_alloc_path {
            return self.issue_chunk_reference(s, now);
        }
        let h = &mut self.hot[s];
        let chunk = h.remaining.min(self.config.chunk_bytes);
        if chunk == 0 {
            // Zero-byte transfer: complete immediately at `now`.
            h.last_end = now;
            if h.first_start == Time::MAX {
                h.first_start = now;
            }
            return now;
        }
        h.remaining -= chunk;
        let dma = h.dma as usize;
        let uses_dram = h.src < 0 || h.dst < 0;
        let src = spad_of(h.src);
        let dst = spad_of(h.dst);

        let (icn_dur, dma_dur, dram_dur) = self.chunk_durs(chunk);

        let mut start = now;
        if uses_dram {
            start = start.max(self.dram.earliest_start(now));
        }
        if let Some(si) = src {
            // The producer scratchpad's read port.
            start = start.max(self.spad_ports[si].earliest_start(now));
        }
        start = start.max(self.icn.earliest_start(src, dst, now));
        start = start.max(self.dmas[dma].earliest_start(now));
        if uses_dram {
            start = gate_dram_start(&mut self.dram_outages, &self.tracer, start);
        }

        let mut end = start;
        if uses_dram {
            end = end.max(self.dram.reserve_from(now, start, dram_dur).1);
        }
        if let Some(si) = src {
            end = end.max(self.spad_ports[si].reserve_from(now, start, icn_dur).1);
        }
        self.icn.reserve_from(src, dst, now, start, icn_dur);
        end = end.max(start + icn_dur);
        end = end.max(self.dmas[dma].reserve_from(now, start, dma_dur).1);

        self.icn.note_busy(start, start + icn_dur);

        let h = &mut self.hot[s];
        if h.first_start == Time::MAX {
            h.first_start = start;
        }
        h.queued += start.saturating_since(now);
        h.last_end = h.last_end.max(end);
        end
    }

    /// The pre-optimisation chunk path, kept in test builds as the
    /// reference the chunk-path tests compare against: boxes the lane
    /// set, recomputes bandwidth divisions per chunk, and reserves through
    /// [`reserve_joint`]. Reservation-for-reservation identical to
    /// [`issue_chunk`](Self::issue_chunk).
    #[cfg(test)]
    fn issue_chunk_reference(&mut self, s: usize, now: Time) -> Time {
        let chunk = self.hot[s].remaining.min(self.config.chunk_bytes);
        if chunk == 0 {
            let h = &mut self.hot[s];
            h.last_end = now;
            if h.first_start == Time::MAX {
                h.first_start = now;
            }
            return now;
        }
        self.hot[s].remaining -= chunk;
        let route = self.hot[s].route();

        let icn_dur = Dur::for_bytes(chunk, self.config.interconnect_bandwidth);
        let dma_dur = Dur::for_bytes(chunk, self.config.dma_bandwidth);
        let dram_dur = Dur::for_bytes(chunk, self.config.dram_bandwidth);

        let mut resources: Vec<&mut Timeline> = Vec::with_capacity(5);
        let mut durs: Vec<Dur> = Vec::with_capacity(5);
        if route.uses_dram() {
            resources.push(&mut self.dram);
            durs.push(dram_dur);
        }
        let src = route.src.spad_index();
        let dst = route.dst.spad_index();
        if let Some(si) = src {
            resources.push(&mut self.spad_ports[si]);
            durs.push(icn_dur);
        }
        let lanes = self.icn.lanes_mut(src, dst);
        for lane in lanes {
            resources.push(lane);
            durs.push(icn_dur);
        }
        resources.push(&mut self.dmas[self.hot[s].dma as usize]);
        durs.push(dma_dur);

        let (start, end) = if self.dram_outages.is_some() && route.uses_dram() {
            // The blackout gate sits between the joint earliest-start fold
            // and the reservations, so `reserve_joint` is inlined here —
            // identical except for the gate, which both paths apply after
            // maxing over every involved resource.
            let mut start = resources.iter().fold(now, |acc, r| acc.max(r.earliest_start(now)));
            start = gate_dram_start(&mut self.dram_outages, &self.tracer, start);
            let mut end = start;
            for (r, &d) in resources.iter_mut().zip(&durs) {
                end = end.max(r.reserve_from(now, start, d).1);
            }
            (start, end)
        } else {
            reserve_joint(&mut resources, &durs, now)
        };
        self.icn.note_busy(start, start + icn_dur);

        let h = &mut self.hot[s];
        if h.first_start == Time::MAX {
            h.first_start = start;
        }
        h.queued += start.saturating_since(now);
        h.last_end = h.last_end.max(end);
        end
    }

    /// Number of transfers still in flight.
    pub fn in_flight(&self) -> usize {
        self.slots.live()
    }

    /// Number of arena slots ever allocated — the upper bound (exclusive)
    /// of [`TransferId::slot`] across live handles, i.e. the length a
    /// slot-indexed side table must have.
    pub fn slots(&self) -> usize {
        self.slots.slots()
    }

    /// Total DRAM busy time so far.
    pub fn dram_busy(&self) -> Dur {
        self.dram.stats().busy
    }

    /// Union interconnect busy time so far (Fig. 13 numerator).
    pub fn interconnect_busy(&self) -> Dur {
        self.icn.busy()
    }

    /// Bytes read from DRAM so far.
    pub fn dram_read_bytes(&self) -> u64 {
        self.dram_read_bytes
    }

    /// Bytes written to DRAM so far.
    pub fn dram_write_bytes(&self) -> u64 {
        self.dram_write_bytes
    }

    /// Bytes forwarded scratchpad-to-scratchpad so far.
    pub fn spad_to_spad_bytes(&self) -> u64 {
        self.spad_to_spad_bytes
    }

    /// Conservation ledger `(begun, completed, cancelled)` — full
    /// payloads accepted by [`begin`](Self::begin), completed, and
    /// cancelled. With no transfer in flight,
    /// `begun == completed + cancelled`.
    pub fn byte_ledger(&self) -> (u64, u64, u64) {
        (self.begun_bytes, self.completed_bytes, self.cancelled_bytes)
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(engine: &mut TransferEngine, id: TransferId, mut t: Time) -> (Time, Time, u64) {
        loop {
            match engine.on_chunk_done(id, t) {
                Progress::Chunk(next) => t = next,
                Progress::Done { start, end, bytes } => return (start, end, bytes),
            }
        }
    }

    #[test]
    fn uncontended_dram_read_matches_bandwidth() {
        let mut e = TransferEngine::new(MemConfig::default(), 1);
        let bytes = 65_536;
        let (id, first) = e.begin(Route { src: Port::Dram, dst: Port::Spad(0) }, bytes, 0, Time::ZERO);
        let (start, end, b) = drive(&mut e, id, first);
        assert_eq!(start, Time::ZERO);
        assert_eq!(b, bytes);
        // DRAM (6.458 GB/s) is the bottleneck: ~10.15us per plane.
        let us = (end - start).as_us_f64();
        assert!((us - 10.148).abs() < 0.02, "got {us}");
        assert_eq!(e.dram_read_bytes(), bytes);
        assert_eq!(e.in_flight(), 0);
    }

    #[test]
    fn spad_to_spad_does_not_touch_dram() {
        let mut e = TransferEngine::new(MemConfig::default(), 2);
        let (id, first) = e.begin(Route { src: Port::Spad(0), dst: Port::Spad(1) }, 65_536, 1, Time::ZERO);
        let (start, end, _) = drive(&mut e, id, first);
        assert_eq!(e.dram_busy(), Dur::ZERO);
        assert_eq!(e.spad_to_spad_bytes(), 65_536);
        // Bus at 14.9 GB/s: ~4.4us per plane — faster than the DRAM path.
        let us = (end - start).as_us_f64();
        assert!((us - 4.399).abs() < 0.02, "got {us}");
    }

    /// Drives several transfers concurrently with a mini event loop,
    /// returning each transfer's end time, positionally aligned with
    /// `starts` — indexed slots instead of a per-call map allocation.
    fn drive_concurrent(engine: &mut TransferEngine, starts: Vec<(TransferId, Time)>) -> Vec<Time> {
        let mut queue = relief_sim::EventQueue::new();
        for (i, (id, t)) in starts.iter().enumerate() {
            queue.push(*t, (i, *id));
        }
        let mut ends: Vec<Option<Time>> = vec![None; starts.len()];
        while let Some((now, (i, id))) = queue.pop() {
            match engine.on_chunk_done(id, now) {
                Progress::Chunk(next) => queue.push(next, (i, id)),
                Progress::Done { end, .. } => ends[i] = Some(end),
            }
        }
        ends.into_iter().map(|e| e.expect("every transfer completed")).collect()
    }

    #[test]
    fn concurrent_dram_transfers_share_bandwidth() {
        let mut e = TransferEngine::new(MemConfig::default(), 2);
        let bytes = 65_536;
        let r0 = Route { src: Port::Dram, dst: Port::Spad(0) };
        let r1 = Route { src: Port::Dram, dst: Port::Spad(1) };
        let (id0, f0) = e.begin(r0, bytes, 0, Time::ZERO);
        let (id1, f1) = e.begin(r1, bytes, 1, Time::ZERO);
        let ends = drive_concurrent(&mut e, vec![(id0, f0), (id1, f1)]);
        let solo = Dur::for_bytes(bytes, MemConfig::default().dram_bandwidth);
        // Both should take roughly 2x the solo time (fair interleaving),
        // not 1x / 2x (whole-transfer serialization).
        let last = ends[0].max(ends[1]).saturating_since(Time::ZERO);
        assert!(last >= solo * 19 / 10, "shared: {last} vs solo {solo}");
        let first = ends[0].min(ends[1]).saturating_since(Time::ZERO);
        assert!(first >= solo * 18 / 10, "loser finished too early: {first}");
    }

    #[test]
    fn crossbar_isolates_disjoint_forwards() {
        let cfg = MemConfig::default().with_crossbar();
        let mut e = TransferEngine::new(cfg, 4);
        let bytes = 65_536;
        let (a, fa) = e.begin(Route { src: Port::Spad(0), dst: Port::Spad(1) }, bytes, 1, Time::ZERO);
        let (b, fb) = e.begin(Route { src: Port::Spad(2), dst: Port::Spad(3) }, bytes, 3, Time::ZERO);
        let (_, ea, _) = drive(&mut e, a, fa);
        let (_, eb, _) = drive(&mut e, b, fb);
        let solo = Dur::for_bytes(bytes, cfg.interconnect_bandwidth);
        // No interference: each finishes in about solo time.
        assert!(ea.saturating_since(Time::ZERO) <= solo * 11 / 10);
        assert!(eb.saturating_since(Time::ZERO) <= solo * 11 / 10);
    }

    #[test]
    fn bus_serializes_what_crossbar_parallelizes() {
        let run = |cfg: MemConfig| {
            let mut e = TransferEngine::new(cfg, 4);
            let bytes = 65_536;
            let (a, fa) = e.begin(Route { src: Port::Spad(0), dst: Port::Spad(1) }, bytes, 1, Time::ZERO);
            let (b, fb) = e.begin(Route { src: Port::Spad(2), dst: Port::Spad(3) }, bytes, 3, Time::ZERO);
            let (_, ea, _) = drive(&mut e, a, fa);
            let (_, eb, _) = drive(&mut e, b, fb);
            ea.max(eb)
        };
        let bus = run(MemConfig::default());
        let xbar = run(MemConfig::default().with_crossbar());
        assert!(bus > xbar, "bus {bus} should be slower than crossbar {xbar}");
    }

    #[test]
    fn zero_byte_transfer_completes_immediately() {
        let mut e = TransferEngine::new(MemConfig::default(), 1);
        let now = Time::from_us(5);
        let (id, first) = e.begin(Route { src: Port::Dram, dst: Port::Spad(0) }, 0, 0, now);
        assert_eq!(first, now);
        match e.on_chunk_done(id, first) {
            Progress::Done { start, end, bytes } => {
                assert_eq!((start, end, bytes), (now, now, 0));
            }
            p => panic!("expected Done, got {p:?}"),
        }
    }

    #[test]
    fn interconnect_busy_tracks_transfers() {
        let mut e = TransferEngine::new(MemConfig::default(), 1);
        assert_eq!(e.interconnect_busy(), Dur::ZERO);
        let (id, f) = e.begin(Route { src: Port::Dram, dst: Port::Spad(0) }, 8192, 0, Time::ZERO);
        drive(&mut e, id, f);
        // Two 4 KiB chunks, each rounded up to a picosecond independently.
        let icn_time = Dur::for_bytes(4096, MemConfig::default().interconnect_bandwidth) * 2;
        assert_eq!(e.interconnect_busy(), icn_time);
    }

    #[test]
    fn concurrent_forwards_from_one_producer_serialize_on_its_port() {
        // Two consumers (distinct DMAs) pulling from SPAD 0 at once: the
        // producer's read port serializes them even on a crossbar.
        let cfg = MemConfig::default().with_crossbar();
        let mut e = TransferEngine::new(cfg, 3);
        let bytes = 65_536;
        let (a, fa) = e.begin(Route { src: Port::Spad(0), dst: Port::Spad(1) }, bytes, 1, Time::ZERO);
        let (b, fb) = e.begin(Route { src: Port::Spad(0), dst: Port::Spad(2) }, bytes, 2, Time::ZERO);
        let ends = drive_concurrent(&mut e, vec![(a, fa), (b, fb)]);
        let solo = Dur::for_bytes(bytes, cfg.interconnect_bandwidth);
        let last = ends[0].max(ends[1]).saturating_since(Time::ZERO);
        assert!(last >= solo * 19 / 10, "port contention must serialize: {last} vs solo {solo}");
    }

    #[test]
    fn distinct_producers_forward_concurrently_on_crossbar() {
        let cfg = MemConfig::default().with_crossbar();
        let mut e = TransferEngine::new(cfg, 4);
        let bytes = 65_536;
        let (a, fa) = e.begin(Route { src: Port::Spad(0), dst: Port::Spad(2) }, bytes, 2, Time::ZERO);
        let (b, fb) = e.begin(Route { src: Port::Spad(1), dst: Port::Spad(3) }, bytes, 3, Time::ZERO);
        let ends = drive_concurrent(&mut e, vec![(a, fa), (b, fb)]);
        let solo = Dur::for_bytes(bytes, cfg.interconnect_bandwidth);
        for end in ends {
            assert!(end.saturating_since(Time::ZERO) <= solo * 11 / 10);
        }
    }

    /// The allocation-free chunk path and the reference path must produce
    /// identical reservations: same per-transfer outcomes, same resource
    /// stats, same occupancy — on bus and crossbar, full and partial
    /// chunks, contended and not.
    #[test]
    fn fast_and_reference_paths_are_equivalent() {
        for crossbar in [false, true] {
            let cfg = if crossbar {
                MemConfig::default().with_crossbar()
            } else {
                MemConfig::default()
            };
            let mut fast = TransferEngine::new(cfg, 4);
            let mut reference = TransferEngine::new(cfg, 4);
            reference.reference_alloc_path = true;
            // Mixed routes, sizes that exercise partial trailing chunks
            // and zero-byte completion, staggered starts for contention.
            let plan = [
                (Route { src: Port::Dram, dst: Port::Spad(0) }, 65_536, 0, 0),
                (Route { src: Port::Spad(0), dst: Port::Spad(1) }, 10_000, 1, 2),
                (Route { src: Port::Spad(1), dst: Port::Dram }, 4_097, 1, 5),
                (Route { src: Port::Spad(2), dst: Port::Spad(3) }, 0, 3, 5),
                (Route { src: Port::Dram, dst: Port::Spad(2) }, 123, 2, 7),
            ];
            let mut outcomes = Vec::new();
            for e in [&mut fast, &mut reference] {
                let starts: Vec<(TransferId, Time)> = plan
                    .iter()
                    .map(|&(route, bytes, dma, at_us)| {
                        e.begin(route, bytes, dma, Time::from_us(at_us))
                    })
                    .collect();
                let ends = drive_concurrent(e, starts.clone());
                outcomes.push((starts, ends));
            }
            assert_eq!(outcomes[0], outcomes[1], "crossbar={crossbar}");
            assert_eq!(fast.dram_busy(), reference.dram_busy(), "crossbar={crossbar}");
            assert_eq!(
                fast.interconnect_busy(),
                reference.interconnect_busy(),
                "crossbar={crossbar}"
            );
            assert_eq!(fast.dram.stats(), reference.dram.stats());
            for (a, b) in fast.dmas.iter().zip(&reference.dmas) {
                assert_eq!(a.stats(), b.stats());
                assert_eq!(a.free_at(), b.free_at());
            }
            for (a, b) in fast.spad_ports.iter().zip(&reference.spad_ports) {
                assert_eq!(a.stats(), b.stats());
            }
            assert_eq!(fast.icn.total_queued(), reference.icn.total_queued());
            assert_eq!(fast.dram_read_bytes(), reference.dram_read_bytes());
            assert_eq!(fast.dram_write_bytes(), reference.dram_write_bytes());
            assert_eq!(fast.spad_to_spad_bytes(), reference.spad_to_spad_bytes());
        }
    }

    #[test]
    fn dram_outage_gate_delays_chunk_starts_identically_on_both_paths() {
        let windows = vec![(0u64, 1_000_000u64), (3_000_000, 3_500_000)];
        let run = |reference: bool| {
            let mut e = TransferEngine::new(MemConfig::default(), 2);
            e.reference_alloc_path = reference;
            e.set_dram_outages(Box::new(windows.clone().into_iter()));
            let (a, fa) =
                e.begin(Route { src: Port::Dram, dst: Port::Spad(0) }, 20_000, 0, Time::ZERO);
            let (b, fb) =
                e.begin(Route { src: Port::Spad(0), dst: Port::Spad(1) }, 8_192, 1, Time::ZERO);
            let ends = drive_concurrent(&mut e, vec![(a, fa), (b, fb)]);
            (ends, e.channel_outages_applied(), e.dram_busy())
        };
        let (fast_ends, fast_applied, fast_busy) = run(false);
        let (ref_ends, ref_applied, ref_busy) = run(true);
        assert_eq!(fast_ends, ref_ends);
        assert_eq!(fast_applied, ref_applied);
        assert_eq!(fast_busy, ref_busy);
        // The first window covers t=0, so the DRAM read cannot start
        // before 1us; the SPAD forward is not gated.
        assert!(fast_applied >= 1, "window at t=0 must delay the DRAM read");
        assert!(fast_ends[0] > Time::from_ps(1_000_000));
        // Without outages the read finishes well before 1us + transfer time.
        let mut clean = TransferEngine::new(MemConfig::default(), 2);
        let (id, first) =
            clean.begin(Route { src: Port::Dram, dst: Port::Spad(0) }, 20_000, 0, Time::ZERO);
        let (_, clean_end, _) = drive(&mut clean, id, first);
        assert!(fast_ends[0] >= clean_end + Dur::from_ps(1_000_000));
    }

    #[test]
    fn cancel_rolls_back_unissued_bytes_and_keeps_ledger_conserved() {
        let mut e = TransferEngine::new(MemConfig::default(), 2);
        let bytes = 65_536;
        // Complete one transfer fully, then cancel a second after one chunk.
        let (done_id, f0) =
            e.begin(Route { src: Port::Dram, dst: Port::Spad(0) }, bytes, 0, Time::ZERO);
        let (_, end0, _) = drive(&mut e, done_id, f0);
        let (cancel_id, first) =
            e.begin(Route { src: Port::Spad(0), dst: Port::Spad(1) }, bytes, 1, end0);
        assert!(e.is_live(cancel_id));
        // One chunk has been issued by `begin`; cancel at its completion.
        let moved = e.cancel(cancel_id, first);
        assert_eq!(moved, MemConfig::default().chunk_bytes);
        assert!(!e.is_live(cancel_id));
        assert_eq!(e.in_flight(), 0);
        // Attribution keeps only the issued chunk of the cancelled forward.
        assert_eq!(e.dram_read_bytes(), bytes);
        assert_eq!(e.spad_to_spad_bytes(), moved);
        let (begun, completed, cancelled) = e.byte_ledger();
        assert_eq!(begun, 2 * bytes);
        assert_eq!(completed, bytes);
        assert_eq!(cancelled, bytes);
        assert_eq!(begun, completed + cancelled);
    }

    #[test]
    fn completed_slots_are_reused_without_growth() {
        // Sequential begin/complete cycles must keep hitting the same
        // arena slot: the high-water mark stays at the peak concurrency
        // (1 here), so steady state allocates nothing per transfer.
        let mut e = TransferEngine::new(MemConfig::default(), 1);
        let mut t = Time::ZERO;
        let mut ids = Vec::new();
        for _ in 0..16 {
            let (id, first) = e.begin(Route { src: Port::Dram, dst: Port::Spad(0) }, 8192, 0, t);
            ids.push(id);
            let (_, end, _) = drive(&mut e, id, first);
            t = end;
        }
        assert_eq!(e.slots(), 1, "one-at-a-time transfers must reuse one slot");
        assert_eq!(e.in_flight(), 0);
        // Same slot, distinct generations: every retired handle is unique.
        assert_eq!(ids.iter().map(|id| id.slot()).max(), Some(0));
        let mut seen = ids.clone();
        seen.dedup();
        assert_eq!(seen.len(), ids.len(), "generations must distinguish reused slots");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale slab handle")]
    fn stale_transfer_handle_fires_debug_assertion() {
        let mut e = TransferEngine::new(MemConfig::default(), 1);
        let (id, first) = e.begin(Route { src: Port::Dram, dst: Port::Spad(0) }, 4096, 0, Time::ZERO);
        drive(&mut e, id, first);
        // The transfer completed and its slot was released (and possibly
        // reused); driving the old handle again must be caught.
        let _ = e.begin(Route { src: Port::Dram, dst: Port::Spad(0) }, 4096, 0, Time::ZERO);
        e.on_chunk_done(id, Time::from_us(99));
    }

    #[test]
    #[should_panic(expected = "dma index out of range")]
    fn bad_dma_index_panics() {
        let mut e = TransferEngine::new(MemConfig::default(), 1);
        e.begin(Route { src: Port::Dram, dst: Port::Spad(0) }, 1, 5, Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "DRAM-to-DRAM")]
    fn dram_to_dram_rejected() {
        let mut e = TransferEngine::new(MemConfig::default(), 1);
        e.begin(Route { src: Port::Dram, dst: Port::Dram }, 1, 0, Time::ZERO);
    }
}
