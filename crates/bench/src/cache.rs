//! Content-addressed persistent campaign cache.
//!
//! Every campaign cell is a pure function of its [`RunSpec`]: the policy,
//! workload label, platform label, and replicate index determine the seed
//! and therefore every output byte (see `crate::campaign`'s determinism
//! contract). That makes results cacheable by *content address*: a cell's
//! canonical label, salted with a code-version string, names its record,
//! and re-running a campaign only simulates cells whose record is absent,
//! stale, or unreadable.
//!
//! **Packs.** The records live in *pack* files, one per
//! `campaign::execute` call that simulated anything. After its worker
//! pool joins, `execute` writes every cell it simulated into one pack; at
//! its start it opens every pack in the directory, reads only their
//! indexes, and answers each cell with one positioned read. A cold grid
//! therefore creates one file rather than one per cell (creating a file
//! costs far more than writing a few kilobytes on some hosts), and a warm
//! grid opens one. A pack named `<fnv1a(salt ⧺ 0x1f ⧺ labels sorted,
//! 0x1f-separated):016x>.pack` (schema v5) holds:
//!
//! 1. a header: [`SCHEMA`] and the salt;
//! 2. the records, sorted by label, each a self-contained entry — its own
//!    schema/salt/label header, the `SimResult`, the 38 `EventCounters`
//!    fields, and an end marker;
//! 3. an index: a count, then `(fnv1a(label), offset, length)` per record;
//! 4. a 16-byte footer: the index's offset, then the end marker.
//!
//! Sorted records make a pack's bytes a function of the set of cells it
//! stores, whatever the `--jobs` level or spec order. A process killed
//! mid-`execute` keeps none of that call's cells (its temp file is an
//! orphan for `cache_hygiene`); a cold grid is about a second of work.
//!
//! Design rules:
//!
//! * **Byte-identical output.** A cache hit deserializes the exact
//!   `SimResult` and `EventCounters` the original run produced (floats
//!   round-trip through their IEEE bit patterns), and reconciliation
//!   mismatches are recomputed from those — so campaign stdout is
//!   byte-identical with a cold or warm cache at any `--jobs` level.
//! * **Corrupt-data tolerance.** A pack whose header, footer or index
//!   fails to validate is ignored whole; a record that fails to parse —
//!   truncation, a schema bump, a salt or label mismatch, stray bytes —
//!   is a miss. Either way the cell re-simulates and lands in the next
//!   pack. A label stored in several packs is tried in file-name order
//!   until one copy decodes, so a corrupt copy never shadows a valid one.
//! * **No third-party formats.** The workspace is hermetic (no serde at
//!   run time), so entries are fixed-width little-endian binary: `u64`,
//!   `Time`, `Dur` and `f64` bit patterns in 8 bytes, `bool` in one byte
//!   (0 or 1), strings and collections length-prefixed (every length
//!   bounded by the bytes that can hold it before allocating), then an
//!   end marker.
//! * **Trace captures bypass the cache.** Runs captured via
//!   `ExecOptions::trace_labels` carry a full text trace that is not
//!   persisted; they are neither served from nor stored to the cache.
//!
//! Besides per-cell records the cache also stores *rendered artifacts*
//! (the oracle table, the Fig. 12 host-latency table), one `.art` file
//! each, so a warm `all_experiments` rerun recomputes nothing at all.

use crate::campaign::{RunRecord, RunSpec};
use relief_accel::{PredictionStats, SimResult, Span, Trace};
use relief_core::TaskKey;
use relief_metrics::{
    reconcile, AppStats, ClassServiceStats, FaultStats, Histogram, RunStats, ServiceStats,
    TrafficStats,
};
use relief_sim::{fnv1a, Dur, Time};
use relief_trace::EventCounters;
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};

/// On-disk schema identifier; the first string of every pack, record and
/// artifact. Bump the version suffix whenever the serialized layout
/// changes shape — old files then parse as misses instead of garbage.
pub const SCHEMA: &str = "relief-campaign-cache/v5";

/// The hand-kept half of [`CODE_SALT`]. Bump it for a change the
/// behaviour corpus cannot see: a behaviour change, or relabelled cells
/// whose entries under the old labels can never hit again (the bump
/// makes them scan as stale).
const SALT_TAG: &str = "relief-sim/2026-10-19.content-derived-sweep-labels";

/// [`CODE_SALT`]'s bytes: [`SALT_TAG`], `+`, then the FNV-1a digest of
/// the committed behaviour corpus in 16 lowercase hex digits.
const SALT_BYTES: [u8; SALT_TAG.len() + 17] = {
    let digest = fnv1a(include_bytes!("../../../tests/corpus/behaviour.txt"));
    let mut out = [b'+'; SALT_TAG.len() + 17];
    out.split_at_mut(SALT_TAG.len()).0.copy_from_slice(SALT_TAG.as_bytes());
    let mut d = 0;
    while d < 16 {
        out[out.len() - 1 - d] = b"0123456789abcdef"[((digest >> (4 * d)) & 0xf) as usize];
        d += 1;
    }
    out
};

/// Code-version salt folded into every content address and stored in
/// every header: a hand-kept tag, `+`, and the FNV-1a digest of
/// `tests/corpus/behaviour.txt`. Any intended change to simulated
/// behaviour updates that corpus, so it re-salts the cache without a
/// hand bump and every stale record misses at once. The `xtask check`
/// cache-hygiene step asserts the on-disk cache contains no files
/// written under another salt.
pub const CODE_SALT: &str = match std::str::from_utf8(&SALT_BYTES) {
    Ok(salt) => salt,
    Err(_) => panic!("the code salt is ASCII"),
};

/// Default cache location, relative to the working directory.
pub const DEFAULT_DIR: &str = "target/campaign-cache";

/// Where (and whether) campaign results persist between processes.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Master switch; when false, lookups miss and stores are dropped.
    pub enabled: bool,
    /// Directory holding the packs and artifacts (created on first store).
    pub dir: PathBuf,
    /// Code-version salt mixed into every key and stored in every header.
    pub salt: String,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::disabled()
    }
}

impl CacheConfig {
    /// A disabled cache: every lookup misses, every store is a no-op.
    /// This is the `ExecOptions::default()` setting, so tests and library
    /// callers never touch the filesystem unless they opt in.
    pub fn disabled() -> Self {
        CacheConfig { enabled: false, dir: PathBuf::new(), salt: String::new() }
    }

    /// The standard persistent cache the campaign commands use:
    /// [`DEFAULT_DIR`] (overridable via a non-empty `RELIEF_CACHE_DIR`
    /// environment variable; an empty one means the default) under the
    /// current [`CODE_SALT`].
    pub fn standard() -> Self {
        let dir = std::env::var_os("RELIEF_CACHE_DIR")
            .filter(|dir| !dir.is_empty())
            .map_or_else(|| PathBuf::from(DEFAULT_DIR), PathBuf::from);
        CacheConfig::at(dir)
    }

    /// An enabled cache rooted at `dir` under the current [`CODE_SALT`]
    /// (tests point this at a temp directory).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        CacheConfig { enabled: true, dir: dir.into(), salt: CODE_SALT.to_string() }
    }

    /// The file for a set of labels: 16 hex digits of
    /// `fnv1a(salt ⧺ 0x1f ⧺ labels, 0x1f-separated)`.
    fn entry_path<'l>(&self, labels: impl IntoIterator<Item = &'l str>, ext: &str) -> PathBuf {
        let mut key = self.salt.clone().into_bytes();
        for label in labels {
            key.push(0x1f);
            key.extend_from_slice(label.as_bytes());
        }
        self.dir.join(format!("{:016x}.{ext}", fnv1a(&key)))
    }

    /// Fetches a cached record for `spec`, or `None` on any miss. This
    /// opens the directory's packs for one lookup; `campaign::execute`
    /// opens them once per call instead.
    pub fn lookup(&self, spec: &RunSpec) -> Option<RunRecord> {
        Packs::open(self).lookup(spec, &spec.label())
    }

    /// Persists one run's record as a one-record pack. Disabled caches,
    /// trace-captured records (their text trace is not persisted), and
    /// I/O failures all degrade to "not stored" — the cache is an
    /// accelerator, never a correctness dependency.
    pub fn store(&self, spec: &RunSpec, rec: &RunRecord) {
        self.write_pack(vec![(&spec.label(), rec)]);
    }

    /// Writes `records` (label, record) as one pack, encoding one record
    /// at a time into its temp file. Trace-captured records are dropped,
    /// and a label given twice is stored once. Nothing is written when no
    /// record remains; I/O failures leave no file behind.
    pub(crate) fn write_pack(&self, mut records: Vec<(&str, &RunRecord)>) {
        records.retain(|(_, rec)| rec.trace_text.is_none());
        if !self.enabled || records.is_empty() {
            return;
        }
        records.sort_unstable_by_key(|&(label, _)| label);
        records.dedup_by_key(|&mut (label, _)| label);
        let path = self.entry_path(records.iter().map(|&(label, _)| label), "pack");
        let _ = self.install(&path, |file| {
            let mut header = Writer { out: Vec::with_capacity(header_len(&self.salt)) };
            header.string(SCHEMA);
            header.string(&self.salt);
            file.write_all(&header.out)?;
            let mut at = header.out.len() as u64;
            let mut index = Writer { out: Vec::with_capacity(24 * records.len() + 32) };
            index.u64(records.len() as u64);
            for (label, rec) in records {
                let mut w = Writer::new(&self.salt, label);
                write_sim_result(&mut w, &rec.result);
                write_counters(&mut w, &rec.counters);
                let record = w.finish();
                file.write_all(&record)?;
                index.u64(fnv1a(label.as_bytes()));
                index.u64(at);
                index.u64(record.len() as u64);
                at += record.len() as u64;
            }
            // The footer: the index's offset, then the end marker.
            index.u64(at);
            file.write_all(&index.finish())
        });
    }

    /// Fetches a cached rendered artifact (an already-formatted report
    /// string) stored under `name`.
    pub fn lookup_artifact(&self, name: &str) -> Option<String> {
        if !self.enabled {
            return None;
        }
        let bytes = fs::read(self.entry_path([name], "art")).ok()?;
        let mut r = Reader::new(&bytes);
        r.expect_header(&self.salt, name)?;
        let body = r.string()?;
        r.finish()?;
        Some(body)
    }

    /// Persists a rendered artifact string under `name`.
    pub fn store_artifact(&self, name: &str, body: &str) {
        if !self.enabled {
            return;
        }
        let mut w = Writer::new(&self.salt, name);
        w.string(body);
        let bytes = w.finish();
        let _ = self.install(&self.entry_path([name], "art"), |file| file.write_all(&bytes));
    }

    /// Atomically installs a file at `path`: `write` fills
    /// `<key>.tmp<pid>`, which is then renamed over `path`, so a
    /// concurrent reader sees the old file or the new one, never a torn
    /// write. On any failure the temp file is removed and nothing is
    /// installed. Callers drop the error: a failed store is a future
    /// cache miss, not a campaign failure.
    fn install(
        &self,
        path: &Path,
        write: impl FnOnce(&mut File) -> io::Result<()>,
    ) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        let installed = File::create(&tmp)
            .and_then(|mut file| write(&mut file))
            .and_then(|()| fs::rename(&tmp, path));
        if installed.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        installed
    }

    /// Scans the cache directory for files that can never hit, returning
    /// their names: packs whose header, footer or index does not validate
    /// under the current schema and salt, every `.run` file (the v2–v4
    /// per-cell layout, which v5 never reads), artifacts with a wrong
    /// header, and temp files orphaned by a writer that died before its
    /// rename. Only headers, footers and indexes are read; unreadable
    /// files count as stale. Used by the `xtask check` cache-hygiene
    /// step; an absent directory is vacuously clean.
    pub fn stale_entries(&self) -> Vec<String> {
        let Ok(dir) = fs::read_dir(&self.dir) else { return Vec::new() };
        let mut stale = Vec::new();
        for entry in dir.flatten() {
            let path = entry.path();
            let fresh = match path.extension().and_then(|e| e.to_str()) {
                Some("pack") => {
                    File::open(&path).is_ok_and(|f| read_index(&f, &self.salt).is_some())
                }
                Some("art") => File::open(&path).is_ok_and(|f| has_header(&f, &self.salt)),
                Some("run") => false,
                Some(ext) if ext.starts_with("tmp") => false,
                _ => continue,
            };
            if !fresh {
                stale.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        stale.sort();
        stale
    }
}

/// Where one record sits: its pack (an index into `Packs::files`) and
/// its byte range there.
struct Slot {
    key: u64,
    file: usize,
    offset: u64,
    len: usize,
}

/// A cache directory's packs, opened for the duration of one
/// `campaign::execute` call: the open files, and every record's slot
/// keyed by `fnv1a(label)`.
pub(crate) struct Packs<'a> {
    salt: &'a str,
    files: Vec<File>,
    /// Sorted by key; equal keys keep file-name order.
    slots: Vec<Slot>,
}

impl<'a> Packs<'a> {
    /// Opens every `*.pack` in `cache.dir` in file-name order, reading
    /// only its header, footer and index. A pack that fails to validate
    /// is skipped whole. A disabled cache or absent directory has none.
    pub(crate) fn open(cache: &'a CacheConfig) -> Self {
        let mut packs = Packs { salt: &cache.salt, files: Vec::new(), slots: Vec::new() };
        if !cache.enabled {
            return packs;
        }
        let Ok(dir) = fs::read_dir(&cache.dir) else { return packs };
        let mut paths: Vec<PathBuf> = dir
            .flatten()
            .map(|entry| entry.path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "pack"))
            .collect();
        paths.sort();
        for path in paths {
            let Ok(file) = File::open(&path) else { continue };
            let Some(index) = read_index(&file, &cache.salt) else { continue };
            let at = packs.files.len();
            packs.slots.extend(
                index.into_iter().map(|(key, offset, len)| Slot { key, file: at, offset, len }),
            );
            packs.files.push(file);
        }
        packs.slots.sort_by_key(|slot| slot.key);
        packs
    }

    /// The record stored for `label`, or `None` when no pack holds a copy
    /// that decodes. Each candidate costs one positioned read. Mismatches
    /// are recomputed from the decoded counters and stats exactly as a
    /// live run would.
    pub(crate) fn lookup(&self, spec: &RunSpec, label: &str) -> Option<RunRecord> {
        let key = fnv1a(label.as_bytes());
        let first = self.slots.partition_point(|slot| slot.key < key);
        let (result, counters) =
            self.slots[first..].iter().take_while(|slot| slot.key == key).find_map(|slot| {
                let mut bytes = vec![0; slot.len];
                self.files[slot.file].read_exact_at(&mut bytes, slot.offset).ok()?;
                decode_record(&bytes, self.salt, label)
            })?;
        // Truncated runs legitimately disagree byte-wise (transfers in
        // flight at the cap) — same rule as `execute_instrumented`.
        let truncated = spec.config().time_limit.is_some();
        let mismatches =
            if truncated { Vec::new() } else { reconcile(&counters, &result.stats) };
        Some(RunRecord { result, counters, mismatches, trace_text: None })
    }
}

/// Bytes of a pack's header (and of a record's or artifact's first two
/// strings): [`SCHEMA`] and `salt`, each length-prefixed.
fn header_len(salt: &str) -> usize {
    16 + SCHEMA.len() + salt.len()
}

/// True when `file` starts with the [`SCHEMA`] and `salt` strings.
fn has_header(file: &File, salt: &str) -> bool {
    let mut head = vec![0; header_len(salt)];
    if file.read_exact_at(&mut head, 0).is_err() {
        return false;
    }
    let mut r = Reader::new(&head);
    r.str() == Some(SCHEMA) && r.str() == Some(salt)
}

/// Reads a pack's header, footer and index — nothing else — and returns
/// each record's `(fnv1a(label), offset, length)`. `None`, and the pack
/// is ignored whole, when the header or footer fails, the index count
/// exceeds what the index bytes can hold, the index has stray bytes, or
/// a record's range leaves the records region. Every length is checked
/// against the file's size before anything is allocated.
fn read_index(file: &File, salt: &str) -> Option<Vec<(u64, u64, usize)>> {
    if !has_header(file, salt) {
        return None;
    }
    let records_at = header_len(salt) as u64;
    let footer_at = file.metadata().ok()?.len().checked_sub(16)?;
    let mut footer = [0; 16];
    file.read_exact_at(&mut footer, footer_at).ok()?;
    let mut r = Reader::new(&footer);
    let index_at = r.u64()?;
    r.finish()?;
    if !(records_at..=footer_at).contains(&index_at) {
        return None;
    }
    let mut index = vec![0; usize::try_from(footer_at - index_at).ok()?];
    file.read_exact_at(&mut index, index_at).ok()?;
    let mut r = Reader::new(&index);
    let n = r.count(24)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let (key, offset, len) = (r.u64()?, r.u64()?, r.u64()?);
        if offset < records_at || offset.checked_add(len)? > index_at {
            return None;
        }
        entries.push((key, offset, usize::try_from(len).ok()?));
    }
    r.buf.is_empty().then_some(entries)
}

// ---------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------

/// Appended after every record, artifact and pack footer; the reader
/// requires it to be the last bytes, so truncation and trailing garbage
/// both miss.
const END: [u8; 8] = *b"\0relief\n";

/// Serializer for the fixed-width little-endian layout; `finish` appends
/// the [`END`] marker.
struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn new(salt: &str, label: &str) -> Self {
        let mut w = Writer { out: Vec::with_capacity(16 << 10) };
        for s in [SCHEMA, salt, label] {
            w.string(s);
        }
        w
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn boolean(&mut self, v: bool) {
        self.out.push(u8::from(v));
    }

    fn time(&mut self, t: Time) {
        self.u64(t.as_ps());
    }

    fn dur(&mut self, d: Dur) {
        self.u64(d.as_ps());
    }

    fn string(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.out.extend_from_slice(s.as_bytes());
    }

    fn vec_f64(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }

    fn hist(&mut self, h: &Histogram) {
        let (width, counts, overflow, total, sum, max) = h.to_parts();
        self.u64(width);
        self.u64(counts.len() as u64);
        for &c in counts {
            self.u64(c);
        }
        self.u64(overflow);
        self.u64(total);
        self.u64(sum);
        self.u64(max);
    }

    fn finish(mut self) -> Vec<u8> {
        self.out.extend_from_slice(&END);
        self.out
    }
}

/// Deserializer over an entry's bytes. Every accessor returns `None` on
/// short or malformed input; callers propagate with `?` so any corrupt
/// entry collapses to a cache miss.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.buf.split_at_checked(n)?;
        self.buf = rest;
        Some(head)
    }

    /// Verifies the schema / salt / label header without allocating.
    fn expect_header(&mut self, salt: &str, label: &str) -> Option<()> {
        (self.str()? == SCHEMA && self.str()? == salt && self.str()? == label).then_some(())
    }

    fn u64(&mut self) -> Option<u64> {
        let (head, rest) = self.buf.split_first_chunk()?;
        self.buf = rest;
        Some(u64::from_le_bytes(*head))
    }

    fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.u64()?).ok()
    }

    fn boolean(&mut self) -> Option<bool> {
        match self.take(1)? {
            [0] => Some(false),
            [1] => Some(true),
            _ => None,
        }
    }

    fn time(&mut self) -> Option<Time> {
        Some(Time::from_ps(self.u64()?))
    }

    fn dur(&mut self) -> Option<Dur> {
        Some(Dur::from_ps(self.u64()?))
    }

    /// Reads the count of a collection whose elements each encode to at
    /// least `min` bytes, rejecting any count the unread bytes cannot
    /// hold — a corrupt count never reaches an allocation.
    fn count(&mut self, min: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        (n <= self.buf.len() / min).then_some(n)
    }

    fn str(&mut self) -> Option<&'a str> {
        let n = self.count(1)?;
        std::str::from_utf8(self.take(n)?).ok()
    }

    fn string(&mut self) -> Option<String> {
        self.str().map(str::to_owned)
    }

    fn vec_f64(&mut self) -> Option<Vec<f64>> {
        let n = self.count(8)?;
        let (words, _) = self.take(8 * n)?.as_chunks();
        Some(words.iter().map(|&w| f64::from_bits(u64::from_le_bytes(w))).collect())
    }

    fn hist(&mut self) -> Option<Histogram> {
        let width = self.u64()?;
        let n = self.count(8)?;
        let counts = (0..n).map(|_| self.u64()).collect::<Option<Vec<_>>>()?;
        let overflow = self.u64()?;
        let total = self.u64()?;
        let sum = self.u64()?;
        let max = self.u64()?;
        Some(Histogram::from_parts(width, counts, overflow, total, sum, max))
    }

    /// Requires the end marker to be exactly the unread rest — a valid
    /// prefix with trailing garbage is still a corrupt entry.
    fn finish(self) -> Option<()> {
        (self.buf == END).then_some(())
    }
}

// ---------------------------------------------------------------------
// Structure layer: field-by-field, in declaration order
// ---------------------------------------------------------------------

fn write_sim_result(w: &mut Writer, r: &SimResult) {
    write_run_stats(w, &r.stats);
    write_dur_map(w, &r.per_app_mem_time);
    write_dur_map(w, &r.per_app_compute_time);
    w.vec_f64(&r.prediction.compute_rel_errors);
    w.vec_f64(&r.prediction.dm_rel_errors);
    w.vec_f64(&r.prediction.bw_rel_errors);
    w.u64(r.trace.spans.len() as u64);
    for s in &r.trace.spans {
        w.u64(s.inst as u64);
        w.time(s.start);
        w.time(s.end);
        w.u64(u64::from(s.key.instance));
        w.u64(u64::from(s.key.node));
        w.string(&s.label);
        w.u64(u64::from(s.forwarded_inputs));
        w.u64(u64::from(s.colocated_inputs));
    }
    w.u64(r.events_dispatched);
}

/// Decodes one record: header, `SimResult`, counters, end marker.
fn decode_record(bytes: &[u8], salt: &str, label: &str) -> Option<(SimResult, EventCounters)> {
    let mut r = Reader::new(bytes);
    r.expect_header(salt, label)?;
    let result = read_sim_result(&mut r)?;
    let counters = read_counters(&mut r)?;
    r.finish()?;
    Some((result, counters))
}

fn read_sim_result(r: &mut Reader) -> Option<SimResult> {
    let stats = read_run_stats(r)?;
    let per_app_mem_time = read_dur_map(r)?;
    let per_app_compute_time = read_dur_map(r)?;
    let prediction = PredictionStats {
        compute_rel_errors: r.vec_f64()?,
        dm_rel_errors: r.vec_f64()?,
        bw_rel_errors: r.vec_f64()?,
    };
    let n = r.count(8 * 8)?; // seven integers and a label length
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        spans.push(Span {
            inst: r.u64()? as usize,
            start: r.time()?,
            end: r.time()?,
            key: TaskKey::new(r.u32()?, r.u32()?),
            label: r.string()?,
            forwarded_inputs: r.u32()?,
            colocated_inputs: r.u32()?,
        });
    }
    Some(SimResult {
        stats,
        per_app_mem_time,
        per_app_compute_time,
        prediction,
        trace: Trace { spans },
        events_dispatched: r.u64()?,
        live_high_water: 0,
    })
}

fn write_dur_map(w: &mut Writer, m: &BTreeMap<String, Dur>) {
    w.u64(m.len() as u64);
    for (k, &v) in m {
        w.string(k);
        w.dur(v);
    }
}

fn read_dur_map(r: &mut Reader) -> Option<BTreeMap<String, Dur>> {
    let n = r.count(16)?; // key length + value
    let mut m = BTreeMap::new();
    for _ in 0..n {
        let k = r.string()?;
        m.insert(k, r.dur()?);
    }
    Some(m)
}

fn write_run_stats(w: &mut Writer, s: &RunStats) {
    w.string(&s.policy);
    w.dur(s.exec_time);
    for v in [
        s.traffic.dram_read_bytes,
        s.traffic.dram_write_bytes,
        s.traffic.spad_to_spad_bytes,
        s.traffic.colocated_bytes,
        s.traffic.spad_access_bytes,
        s.traffic.all_dram_bytes,
    ] {
        w.u64(v);
    }
    w.u64(s.apps.len() as u64);
    for (k, a) in &s.apps {
        w.string(k);
        w.string(&a.name);
        w.u64(a.dags_completed);
        w.u64(a.dag_deadlines_met);
        w.u64(a.nodes_completed);
        w.u64(a.node_deadlines_met);
        w.u64(a.dag_runtimes.len() as u64);
        for &d in &a.dag_runtimes {
            w.dur(d);
        }
        w.dur(a.deadline);
        w.u64(a.edges_consumed);
        w.u64(a.forwards);
        w.u64(a.colocations);
        w.boolean(a.starved);
    }
    w.dur(s.accel_busy);
    w.dur(s.interconnect_busy);
    w.dur(s.dram_busy);
    w.u64(s.scheduler_ops);
    w.dur(s.scheduler_time);
    w.u64(s.edges_total);
    for v in [
        s.faults.task_faults,
        s.faults.dma_faults,
        s.faults.task_retries,
        s.faults.tasks_aborted,
        s.faults.recovered,
        s.faults.unit_quarantines,
        s.faults.fault_attributed_misses,
        s.faults.ecc_faults,
        s.faults.forward_invalidations,
        s.faults.channel_outages,
    ] {
        w.u64(v);
    }
    w.u64(s.service.warmup_ps);
    w.u64(s.service.duration_ps);
    for c in &s.service.classes {
        for v in [
            c.arrivals,
            c.admitted,
            c.shed_bucket,
            c.shed_capacity,
            c.shed_breaker,
            c.timed_out,
            c.hedged,
            c.completed,
            c.dag_deadlines_met,
            c.nodes_measured,
            c.node_deadlines_met,
        ] {
            w.u64(v);
        }
        w.hist(&c.sojourn);
        w.hist(&c.node_latency);
    }
    w.u64(s.service.timeout_cancelled_xfers);
    w.hist(&s.service.retry_hist);
    w.hist(&s.service.open_hist);
}

fn read_run_stats(r: &mut Reader) -> Option<RunStats> {
    let policy = r.string()?;
    let exec_time = r.dur()?;
    let traffic = TrafficStats {
        dram_read_bytes: r.u64()?,
        dram_write_bytes: r.u64()?,
        spad_to_spad_bytes: r.u64()?,
        colocated_bytes: r.u64()?,
        spad_access_bytes: r.u64()?,
        all_dram_bytes: r.u64()?,
    };
    let n = r.count(11 * 8 + 1)?; // two name lengths, nine integers, `starved`
    let mut apps = BTreeMap::new();
    for _ in 0..n {
        let k = r.string()?;
        let name = r.string()?;
        let dags_completed = r.u64()?;
        let dag_deadlines_met = r.u64()?;
        let nodes_completed = r.u64()?;
        let node_deadlines_met = r.u64()?;
        let runtimes = r.count(8)?;
        let dag_runtimes = (0..runtimes).map(|_| r.dur()).collect::<Option<Vec<_>>>()?;
        apps.insert(
            k,
            AppStats {
                name,
                dags_completed,
                dag_deadlines_met,
                nodes_completed,
                node_deadlines_met,
                dag_runtimes,
                deadline: r.dur()?,
                edges_consumed: r.u64()?,
                forwards: r.u64()?,
                colocations: r.u64()?,
                starved: r.boolean()?,
            },
        );
    }
    let accel_busy = r.dur()?;
    let interconnect_busy = r.dur()?;
    let dram_busy = r.dur()?;
    let scheduler_ops = r.u64()?;
    let scheduler_time = r.dur()?;
    let edges_total = r.u64()?;
    let faults = FaultStats {
        task_faults: r.u64()?,
        dma_faults: r.u64()?,
        task_retries: r.u64()?,
        tasks_aborted: r.u64()?,
        recovered: r.u64()?,
        unit_quarantines: r.u64()?,
        fault_attributed_misses: r.u64()?,
        ecc_faults: r.u64()?,
        forward_invalidations: r.u64()?,
        channel_outages: r.u64()?,
    };
    let mut service = ServiceStats {
        warmup_ps: r.u64()?,
        duration_ps: r.u64()?,
        ..ServiceStats::default()
    };
    for c in &mut service.classes {
        *c = ClassServiceStats {
            arrivals: r.u64()?,
            admitted: r.u64()?,
            shed_bucket: r.u64()?,
            shed_capacity: r.u64()?,
            shed_breaker: r.u64()?,
            timed_out: r.u64()?,
            hedged: r.u64()?,
            completed: r.u64()?,
            dag_deadlines_met: r.u64()?,
            nodes_measured: r.u64()?,
            node_deadlines_met: r.u64()?,
            sojourn: r.hist()?,
            node_latency: r.hist()?,
        };
    }
    service.timeout_cancelled_xfers = r.u64()?;
    service.retry_hist = r.hist()?;
    service.open_hist = r.hist()?;
    Some(RunStats {
        policy,
        exec_time,
        traffic,
        apps,
        accel_busy,
        interconnect_busy,
        dram_busy,
        scheduler_ops,
        scheduler_time,
        edges_total,
        faults,
        service,
    })
}

/// `EventCounters` fields, in declaration order — the serialized layout.
fn counter_fields(c: &EventCounters) -> [u64; 38] {
    [
        c.tasks_completed,
        c.dags_arrived,
        c.dags_done,
        c.dags_met,
        c.dram_read_bytes,
        c.dram_write_bytes,
        c.spad_to_spad_bytes,
        c.forwards,
        c.colocations,
        c.dram_inputs,
        c.escalations_granted,
        c.escalations_denied,
        c.feasibility_pass,
        c.feasibility_fail,
        c.queue_bypasses,
        c.writebacks,
        c.writeback_bytes,
        c.task_faults,
        c.task_retries,
        c.tasks_aborted,
        c.dma_faults,
        c.unit_quarantines,
        c.unit_restores,
        c.fault_attributed_misses,
        c.stream_arrivals,
        c.requests_admitted,
        c.requests_shed_bucket,
        c.requests_shed_capacity,
        c.requests_completed,
        c.ecc_faults,
        c.dma_cancels,
        c.channel_outages,
        c.requests_shed_breaker,
        c.requests_timed_out,
        c.hedges_launched,
        c.breaker_opens,
        c.breaker_half_opens,
        c.breaker_closes,
    ]
}

fn write_counters(w: &mut Writer, c: &EventCounters) {
    for v in counter_fields(c) {
        w.u64(v);
    }
}

fn read_counters(r: &mut Reader) -> Option<EventCounters> {
    let mut c = EventCounters::default();
    let slots: [&mut u64; 38] = [
        &mut c.tasks_completed,
        &mut c.dags_arrived,
        &mut c.dags_done,
        &mut c.dags_met,
        &mut c.dram_read_bytes,
        &mut c.dram_write_bytes,
        &mut c.spad_to_spad_bytes,
        &mut c.forwards,
        &mut c.colocations,
        &mut c.dram_inputs,
        &mut c.escalations_granted,
        &mut c.escalations_denied,
        &mut c.feasibility_pass,
        &mut c.feasibility_fail,
        &mut c.queue_bypasses,
        &mut c.writebacks,
        &mut c.writeback_bytes,
        &mut c.task_faults,
        &mut c.task_retries,
        &mut c.tasks_aborted,
        &mut c.dma_faults,
        &mut c.unit_quarantines,
        &mut c.unit_restores,
        &mut c.fault_attributed_misses,
        &mut c.stream_arrivals,
        &mut c.requests_admitted,
        &mut c.requests_shed_bucket,
        &mut c.requests_shed_capacity,
        &mut c.requests_completed,
        &mut c.ecc_faults,
        &mut c.dma_cancels,
        &mut c.channel_outages,
        &mut c.requests_shed_breaker,
        &mut c.requests_timed_out,
        &mut c.hedges_launched,
        &mut c.breaker_opens,
        &mut c.breaker_half_opens,
        &mut c.breaker_closes,
    ];
    for slot in slots {
        *slot = r.u64()?;
    }
    Some(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_round_trip_byte_for_byte() {
        for s in ["", "plain", "with space", "100%|r0/low µs\n\ttab", "s%25"] {
            let mut w = Writer::new("salt", "label");
            w.string(s);
            let out = w.finish();
            let mut r = Reader::new(&out);
            r.expect_header("salt", "label").unwrap();
            assert_eq!(r.string().as_deref(), Some(s), "round-trip of {s:?}");
            r.finish().unwrap();
        }
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        let v = [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, -3.7e-300];
        let mut w = Writer::new("x", "y");
        w.vec_f64(&v);
        let out = w.finish();
        let mut r = Reader::new(&out);
        r.expect_header("x", "y").unwrap();
        let back = r.vec_f64().unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&v));
        r.finish().unwrap();
    }

    #[test]
    fn truncated_or_doctored_streams_read_as_none() {
        let mut w = Writer::new("salt", "label");
        w.u64(7);
        w.boolean(true);
        let good = w.finish();
        // Whole-stream parse succeeds...
        let mut r = Reader::new(&good);
        r.expect_header("salt", "label").unwrap();
        assert_eq!(r.u64(), Some(7));
        assert_eq!(r.boolean(), Some(true));
        r.finish().unwrap();
        // ...but truncation, trailing garbage, a bool byte other than 0
        // or 1, and a foreign header all fail.
        let mut r = Reader::new(&good[..good.len() - 2]);
        r.expect_header("salt", "label").unwrap();
        assert_eq!(r.u64(), Some(7));
        r.boolean().unwrap();
        assert!(r.finish().is_none(), "missing end marker must fail");
        let trailing = [&good[..], b"junk"].concat();
        let mut r = Reader::new(&trailing);
        r.expect_header("salt", "label").unwrap();
        r.u64().unwrap();
        r.boolean().unwrap();
        assert!(r.finish().is_none(), "trailing garbage must fail");
        let mut bad_bool = good.clone();
        let at = bad_bool.len() - END.len() - 1;
        bad_bool[at] = 2;
        let mut r = Reader::new(&bad_bool);
        r.expect_header("salt", "label").unwrap();
        r.u64().unwrap();
        assert_eq!(r.boolean(), None, "bool byte 2 must fail");
        assert!(Reader::new(&good).expect_header("salt", "other").is_none());
        assert!(Reader::new(&good).expect_header("pepper", "label").is_none());
        let v2 = b"relief-campaign-cache/v2 ssalt slabel\n.\n";
        assert!(Reader::new(v2).expect_header("salt", "label").is_none());
    }

    /// A valid encoded record with no spans and no prediction samples,
    /// plus the offsets of its span count and its last `vec_f64` length.
    fn empty_record() -> (Vec<u8>, usize, usize) {
        let result = SimResult {
            stats: RunStats::default(),
            per_app_mem_time: BTreeMap::new(),
            per_app_compute_time: BTreeMap::new(),
            prediction: PredictionStats::default(),
            trace: Trace::default(),
            events_dispatched: 3,
            live_high_water: 0,
        };
        let mut w = Writer::new("salt", "label");
        write_sim_result(&mut w, &result);
        write_counters(&mut w, &EventCounters::default());
        let bytes = w.finish();
        // Tail: span count, events_dispatched, 38 counters, end marker.
        let spans_at = bytes.len() - END.len() - 38 * 8 - 8 - 8;
        (bytes, spans_at, spans_at - 8)
    }

    #[test]
    fn huge_counts_read_as_none_without_allocating() {
        let (good, spans_at, bw_at) = empty_record();
        assert!(decode_record(&good, "salt", "label").is_some());
        let doctored = [(spans_at, 1u64 << 32), (spans_at, u64::MAX), (bw_at, 1 << 40), (bw_at, u64::MAX)];
        for (at, n) in doctored {
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&n.to_le_bytes());
            // Unbounded, a span count of 2^32 would abort the process
            // inside `Vec::with_capacity` instead of missing.
            assert!(decode_record(&bad, "salt", "label").is_none(), "count {n} at {at}");
        }
    }

    #[test]
    fn disabled_cache_never_touches_disk() {
        let cache = CacheConfig::disabled();
        cache.store_artifact("t", "body");
        assert_eq!(cache.lookup_artifact("t"), None);
        assert!(cache.stale_entries().is_empty());
    }

    #[test]
    fn a_failed_write_leaves_no_file_and_installs_nothing() {
        let dir = std::env::temp_dir().join(format!("relief-install-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = CacheConfig::at(&dir);
        let path = dir.join("0123456789abcdef.pack");
        let failed = cache.install(&path, |file| {
            file.write_all(b"some bytes of a record")?;
            Err(io::Error::other("disk full"))
        });
        assert!(failed.is_err());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "the temp file was removed");
        // A successful write installs exactly the target.
        cache.install(&path, |file| file.write_all(b"ok")).unwrap();
        let names: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(names, vec![path.clone()]);
        assert_eq!(fs::read(&path).unwrap(), b"ok");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn code_salt_ends_with_the_corpus_digest() {
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus/behaviour.txt");
        let digest = fnv1a(&fs::read(corpus).unwrap());
        assert_eq!(CODE_SALT, format!("{SALT_TAG}+{digest:016x}"));
    }
}
