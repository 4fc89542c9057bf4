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
//! 0x1f-separated):016x>.pack` (schema v6) holds:
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
//!   (0 or 1), each prediction series as its count and sum in 16 bytes,
//!   strings and collections length-prefixed (every length bounded by
//!   the bytes that can hold it before allocating), then an end marker.
//! * **One layout per type.** Each cached type has one layout function
//!   (`sim_result`, `run_stats`, `event_counters`) that names its fields
//!   once, in layout order, and is generic over a two-way codec: the
//!   writer appends each field, the reader overwrites a blank value with
//!   it. Encoding and decoding cannot drift apart, and a unit test pins
//!   the bytes of a record whose every field is set.
//! * **Trace captures bypass the cache.** Runs captured via
//!   `ExecOptions::trace_labels` carry a full text trace that is not
//!   persisted; they are neither served from nor stored to the cache.
//!
//! Besides per-cell records the cache also stores *rendered artifacts*
//! (the oracle table, the Fig. 12 host-latency table), one `.art` file
//! each, so a warm `all_experiments` rerun recomputes nothing at all.

use crate::campaign::{RunRecord, RunSpec};
use relief_accel::{ErrorSum, SimResult};
use relief_metrics::{Histogram, RunStats};
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
pub const SCHEMA: &str = "relief-campaign-cache/v6";

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
            header.str(SCHEMA);
            header.str(&self.salt);
            file.write_all(&header.out)?;
            let mut at = header.out.len() as u64;
            let mut index = Writer { out: Vec::with_capacity(24 * records.len() + 32) };
            index.word(records.len() as u64);
            for (label, rec) in records {
                let record = encode_record(&self.salt, label, rec);
                file.write_all(&record)?;
                index.word(fnv1a(label.as_bytes()));
                index.word(at);
                index.word(record.len() as u64);
                at += record.len() as u64;
            }
            // The footer: the index's offset, then the end marker.
            index.word(at);
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
        let body = r.str()?.to_owned();
        r.finish()?;
        Some(body)
    }

    /// Persists a rendered artifact string under `name`.
    pub fn store_artifact(&self, name: &str, body: &str) {
        if !self.enabled {
            return;
        }
        let mut w = Writer::new(&self.salt, name);
        w.str(body);
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
    /// per-cell layout, never read since v5), artifacts with a wrong
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
        Some(RunRecord::new(result, counters, None, spec.config().time_limit.is_some()))
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
    let index_at = r.word()?;
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
        let (key, offset, len) = (r.word()?, r.word()?, r.word()?);
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

/// One direction of the record layout. A layout function hands every
/// field of its type to the codec in layout order: [`Writer`] appends
/// the value, [`Reader`] overwrites it with the next decoded one. Each
/// method returns `None` on short or malformed input (a writer never
/// fails), so a corrupt record collapses to a miss.
trait Codec {
    fn u64(&mut self, v: &mut u64) -> Option<()>;
    /// One byte, 0 or 1.
    fn boolean(&mut self, v: &mut bool) -> Option<()>;
    /// Length-prefixed UTF-8.
    fn string(&mut self, v: &mut String) -> Option<()>;
    /// A collection's length, each element encoding to at least
    /// `min_bytes`; a reader rejects any count the unread bytes cannot
    /// hold, so a corrupt count never reaches an allocation.
    fn len(&mut self, n: &mut usize, min_bytes: usize) -> Option<()>;
}

/// Serializer for the fixed-width little-endian layout; `finish` appends
/// the [`END`] marker.
struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn new(salt: &str, label: &str) -> Self {
        let mut w = Writer { out: Vec::with_capacity(16 << 10) };
        for s in [SCHEMA, salt, label] {
            w.str(s);
        }
        w
    }

    fn word(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.out.extend_from_slice(s.as_bytes());
    }

    fn finish(mut self) -> Vec<u8> {
        self.out.extend_from_slice(&END);
        self.out
    }
}

impl Codec for Writer {
    fn u64(&mut self, v: &mut u64) -> Option<()> {
        self.word(*v);
        Some(())
    }

    fn boolean(&mut self, v: &mut bool) -> Option<()> {
        self.out.push(u8::from(*v));
        Some(())
    }

    fn string(&mut self, v: &mut String) -> Option<()> {
        self.str(v);
        Some(())
    }

    fn len(&mut self, n: &mut usize, _: usize) -> Option<()> {
        self.word(*n as u64);
        Some(())
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

    fn word(&mut self) -> Option<u64> {
        let (head, rest) = self.buf.split_first_chunk()?;
        self.buf = rest;
        Some(u64::from_le_bytes(*head))
    }

    /// Reads the count of a collection whose elements each encode to at
    /// least `min` bytes, rejecting any count the unread bytes cannot
    /// hold — a corrupt count never reaches an allocation.
    fn count(&mut self, min: usize) -> Option<usize> {
        let n = usize::try_from(self.word()?).ok()?;
        (n <= self.buf.len() / min).then_some(n)
    }

    fn str(&mut self) -> Option<&'a str> {
        let n = self.count(1)?;
        std::str::from_utf8(self.take(n)?).ok()
    }

    /// Requires the end marker to be exactly the unread rest — a valid
    /// prefix with trailing garbage is still a corrupt entry.
    fn finish(self) -> Option<()> {
        (self.buf == END).then_some(())
    }
}

impl Codec for Reader<'_> {
    fn u64(&mut self, v: &mut u64) -> Option<()> {
        self.word().map(|w| *v = w)
    }

    fn boolean(&mut self, v: &mut bool) -> Option<()> {
        *v = match self.take(1)? {
            [0] => false,
            [1] => true,
            _ => return None,
        };
        Some(())
    }

    fn string(&mut self, v: &mut String) -> Option<()> {
        self.str().map(|s| *v = s.to_owned())
    }

    fn len(&mut self, n: &mut usize, min_bytes: usize) -> Option<()> {
        self.count(min_bytes).map(|count| *n = count)
    }
}

/// A value stored as one `u64`: `to` gives its word, and `from` takes a
/// decoded word back (`None` when the word does not fit the type).
fn via_u64<C: Codec, T>(
    c: &mut C,
    v: &mut T,
    to: impl FnOnce(&T) -> u64,
    from: impl FnOnce(u64) -> Option<T>,
) -> Option<()> {
    let mut word = to(v);
    c.u64(&mut word)?;
    *v = from(word)?;
    Some(())
}

fn dur<C: Codec>(c: &mut C, d: &mut Dur) -> Option<()> {
    via_u64(c, d, |d| d.as_ps(), |ps| Some(Dur::from_ps(ps)))
}

fn time<C: Codec>(c: &mut C, t: &mut Time) -> Option<()> {
    via_u64(c, t, |t| t.as_ps(), |ps| Some(Time::from_ps(ps)))
}

fn u32<C: Codec>(c: &mut C, v: &mut u32) -> Option<()> {
    via_u64(c, v, |&v| u64::from(v), |w| u32::try_from(w).ok())
}

/// A prediction series: its count, then its sum's bit pattern.
fn error_sum<C: Codec>(c: &mut C, s: &mut ErrorSum) -> Option<()> {
    c.u64(&mut s.count)?;
    via_u64(c, &mut s.sum, |sum| sum.to_bits(), |bits| Some(f64::from_bits(bits)))
}

/// A histogram through its parts: bin width, bins, overflow, total, sum
/// and maximum.
fn hist<C: Codec>(c: &mut C, h: &mut Histogram) -> Option<()> {
    let (mut width, counts, mut overflow, mut total, mut sum, mut max) = h.to_parts();
    let mut counts = counts.to_vec();
    c.u64(&mut width)?;
    seq(c, &mut counts, 8, C::u64)?;
    for v in [&mut overflow, &mut total, &mut sum, &mut max] {
        c.u64(v)?;
    }
    *h = Histogram::from_parts(width, counts, overflow, total, sum, max);
    Some(())
}

/// A length-prefixed sequence whose elements each encode to at least
/// `min_bytes`; a reader fills it with blank elements, then decodes
/// into each.
fn seq<C: Codec, T: Default>(
    c: &mut C,
    v: &mut Vec<T>,
    min_bytes: usize,
    mut elem: impl FnMut(&mut C, &mut T) -> Option<()>,
) -> Option<()> {
    let mut n = v.len();
    c.len(&mut n, min_bytes)?;
    v.resize_with(n, T::default);
    v.iter_mut().try_for_each(|x| elem(c, x))
}

/// A string-keyed map as a sequence of (key, value) entries in key order.
fn map<C: Codec, V: Default>(
    c: &mut C,
    m: &mut BTreeMap<String, V>,
    min_bytes: usize,
    mut value: impl FnMut(&mut C, &mut V) -> Option<()>,
) -> Option<()> {
    let mut entries: Vec<(String, V)> = std::mem::take(m).into_iter().collect();
    seq(c, &mut entries, min_bytes, |c, (k, v)| {
        c.string(k)?;
        value(c, v)
    })?;
    *m = entries.into_iter().collect();
    Some(())
}

// ---------------------------------------------------------------------
// Structure layer: one layout function per cached type, naming each
// field once in layout order; it both encodes and decodes
// ---------------------------------------------------------------------

/// Encodes one record: header, `SimResult`, counters, end marker. The
/// layout functions take `&mut` for the reader's sake, so the writer
/// encodes a clone.
fn encode_record(salt: &str, label: &str, rec: &RunRecord) -> Vec<u8> {
    let mut w = Writer::new(salt, label);
    // A writer never fails.
    let _ = sim_result(&mut w, &mut rec.result.clone());
    let _ = event_counters(&mut w, &mut rec.counters.clone());
    w.finish()
}

/// Decodes one record into blank values: header, `SimResult`, counters,
/// end marker.
fn decode_record(bytes: &[u8], salt: &str, label: &str) -> Option<(SimResult, EventCounters)> {
    let mut r = Reader::new(bytes);
    r.expect_header(salt, label)?;
    let (mut result, mut counters) = (SimResult::default(), EventCounters::default());
    sim_result(&mut r, &mut result)?;
    event_counters(&mut r, &mut counters)?;
    r.finish()?;
    Some((result, counters))
}

/// Every `SimResult` field but `live_high_water`, which is host-side and
/// not cached (a decoded record reads 0).
fn sim_result<C: Codec>(c: &mut C, r: &mut SimResult) -> Option<()> {
    run_stats(c, &mut r.stats)?;
    // Each entry: a key length and a value.
    map(c, &mut r.per_app_mem_time, 16, dur)?;
    map(c, &mut r.per_app_compute_time, 16, dur)?;
    let p = &mut r.prediction;
    for s in [&mut p.compute_rel_errors, &mut p.dm_rel_errors, &mut p.bw_rel_errors] {
        error_sum(c, s)?;
    }
    // Each span: seven integers and a label length.
    seq(c, &mut r.trace.spans, 8 * 8, |c, s| {
        via_u64(c, &mut s.inst, |&i| i as u64, |w| usize::try_from(w).ok())?;
        time(c, &mut s.start)?;
        time(c, &mut s.end)?;
        for v in [&mut s.key.instance, &mut s.key.node] {
            u32(c, v)?;
        }
        c.string(&mut s.label)?;
        u32(c, &mut s.forwarded_inputs)?;
        u32(c, &mut s.colocated_inputs)
    })?;
    c.u64(&mut r.events_dispatched)
}

fn run_stats<C: Codec>(c: &mut C, s: &mut RunStats) -> Option<()> {
    c.string(&mut s.policy)?;
    dur(c, &mut s.exec_time)?;
    let t = &mut s.traffic;
    for v in [
        &mut t.dram_read_bytes,
        &mut t.dram_write_bytes,
        &mut t.spad_to_spad_bytes,
        &mut t.colocated_bytes,
        &mut t.spad_access_bytes,
        &mut t.all_dram_bytes,
    ] {
        c.u64(v)?;
    }
    // Each app: two name lengths, nine integers and `starved`.
    map(c, &mut s.apps, 11 * 8 + 1, |c, a| {
        c.string(&mut a.name)?;
        for v in [
            &mut a.dags_completed,
            &mut a.dag_deadlines_met,
            &mut a.nodes_completed,
            &mut a.node_deadlines_met,
        ] {
            c.u64(v)?;
        }
        seq(c, &mut a.dag_runtimes, 8, dur)?;
        dur(c, &mut a.deadline)?;
        for v in [&mut a.edges_consumed, &mut a.forwards, &mut a.colocations] {
            c.u64(v)?;
        }
        c.boolean(&mut a.starved)
    })?;
    for d in [&mut s.accel_busy, &mut s.interconnect_busy, &mut s.dram_busy] {
        dur(c, d)?;
    }
    c.u64(&mut s.scheduler_ops)?;
    dur(c, &mut s.scheduler_time)?;
    c.u64(&mut s.edges_total)?;
    let f = &mut s.faults;
    for v in [
        &mut f.task_faults,
        &mut f.dma_faults,
        &mut f.task_retries,
        &mut f.tasks_aborted,
        &mut f.recovered,
        &mut f.unit_quarantines,
        &mut f.fault_attributed_misses,
        &mut f.ecc_faults,
        &mut f.forward_invalidations,
        &mut f.channel_outages,
    ] {
        c.u64(v)?;
    }
    let svc = &mut s.service;
    c.u64(&mut svc.warmup_ps)?;
    c.u64(&mut svc.duration_ps)?;
    for k in &mut svc.classes {
        for v in [
            &mut k.arrivals,
            &mut k.admitted,
            &mut k.shed_bucket,
            &mut k.shed_capacity,
            &mut k.shed_breaker,
            &mut k.timed_out,
            &mut k.hedged,
            &mut k.completed,
            &mut k.dag_deadlines_met,
            &mut k.nodes_measured,
            &mut k.node_deadlines_met,
        ] {
            c.u64(v)?;
        }
        hist(c, &mut k.sojourn)?;
        hist(c, &mut k.node_latency)?;
    }
    c.u64(&mut svc.timeout_cancelled_xfers)?;
    hist(c, &mut svc.retry_hist)?;
    hist(c, &mut svc.open_hist)
}

/// `EventCounters`' 38 counters, in declaration order.
fn event_counters<C: Codec>(c: &mut C, e: &mut EventCounters) -> Option<()> {
    for v in [
        &mut e.tasks_completed,
        &mut e.dags_arrived,
        &mut e.dags_done,
        &mut e.dags_met,
        &mut e.dram_read_bytes,
        &mut e.dram_write_bytes,
        &mut e.spad_to_spad_bytes,
        &mut e.forwards,
        &mut e.colocations,
        &mut e.dram_inputs,
        &mut e.escalations_granted,
        &mut e.escalations_denied,
        &mut e.feasibility_pass,
        &mut e.feasibility_fail,
        &mut e.queue_bypasses,
        &mut e.writebacks,
        &mut e.writeback_bytes,
        &mut e.task_faults,
        &mut e.task_retries,
        &mut e.tasks_aborted,
        &mut e.dma_faults,
        &mut e.unit_quarantines,
        &mut e.unit_restores,
        &mut e.fault_attributed_misses,
        &mut e.stream_arrivals,
        &mut e.requests_admitted,
        &mut e.requests_shed_bucket,
        &mut e.requests_shed_capacity,
        &mut e.requests_completed,
        &mut e.ecc_faults,
        &mut e.dma_cancels,
        &mut e.channel_outages,
        &mut e.requests_shed_breaker,
        &mut e.requests_timed_out,
        &mut e.hedges_launched,
        &mut e.breaker_opens,
        &mut e.breaker_half_opens,
        &mut e.breaker_closes,
    ] {
        c.u64(v)?;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use relief_accel::{PredictionStats, Span, Trace};
    use relief_core::TaskKey;
    use relief_metrics::{AppStats, ClassServiceStats, FaultStats, ServiceStats, TrafficStats};

    #[test]
    fn strings_round_trip_byte_for_byte() {
        for s in ["", "plain", "with space", "100%|r0/low µs\n\ttab", "s%25"] {
            let mut w = Writer::new("salt", "label");
            w.string(&mut s.to_owned()).unwrap();
            let out = w.finish();
            let mut r = Reader::new(&out);
            r.expect_header("salt", "label").unwrap();
            let mut back = "stale".to_owned();
            r.string(&mut back).unwrap();
            assert_eq!(back, s, "round-trip of {s:?}");
            r.finish().unwrap();
        }
    }

    #[test]
    fn error_sums_round_trip_bit_exactly() {
        let sums = [
            (0, -0.0),
            (1, 0.0),
            (2, f64::NAN),
            (3, f64::from_bits(0xfff8_0000_0000_0001)), // a negative NaN with a payload
            (4, f64::from_bits(1)),                     // the least subnormal
            (5, -3.7e-320),                             // a negative subnormal
            (u64::MAX, f64::INFINITY),
        ];
        let mut w = Writer::new("x", "y");
        for (count, sum) in sums {
            error_sum(&mut w, &mut ErrorSum { count, sum }).unwrap();
        }
        let out = w.finish();
        let mut r = Reader::new(&out);
        r.expect_header("x", "y").unwrap();
        for (count, sum) in sums {
            let mut back = ErrorSum::default();
            error_sum(&mut r, &mut back).unwrap();
            assert_eq!((back.count, back.sum.to_bits()), (count, sum.to_bits()));
        }
        r.finish().unwrap();
    }

    /// The header, then a `u64` and a `bool`.
    fn header_word_and_bool(r: &mut Reader) -> Option<(u64, bool)> {
        r.expect_header("salt", "label")?;
        let (mut word, mut flag) = (0, false);
        r.u64(&mut word)?;
        r.boolean(&mut flag)?;
        Some((word, flag))
    }

    #[test]
    fn truncated_or_doctored_streams_read_as_none() {
        let mut w = Writer::new("salt", "label");
        w.word(7);
        w.boolean(&mut true).unwrap();
        let good = w.finish();
        // Whole-stream parse succeeds...
        let mut r = Reader::new(&good);
        assert_eq!(header_word_and_bool(&mut r), Some((7, true)));
        r.finish().unwrap();
        // ...but truncation, trailing garbage, a bool byte other than 0
        // or 1, and a foreign header all fail.
        let mut r = Reader::new(&good[..good.len() - 2]);
        assert_eq!(header_word_and_bool(&mut r), Some((7, true)));
        assert!(r.finish().is_none(), "missing end marker must fail");
        let trailing = [&good[..], b"junk"].concat();
        let mut r = Reader::new(&trailing);
        assert_eq!(header_word_and_bool(&mut r), Some((7, true)));
        assert!(r.finish().is_none(), "trailing garbage must fail");
        let mut bad_bool = good.clone();
        let at = bad_bool.len() - END.len() - 1;
        bad_bool[at] = 2;
        let read = header_word_and_bool(&mut Reader::new(&bad_bool));
        assert_eq!(read, None, "bool byte 2 must fail");
        assert!(Reader::new(&good).expect_header("salt", "other").is_none());
        assert!(Reader::new(&good).expect_header("pepper", "label").is_none());
        let v2 = b"relief-campaign-cache/v2 ssalt slabel\n.\n";
        assert!(Reader::new(v2).expect_header("salt", "label").is_none());
    }

    /// A valid encoded record with no spans, no apps and no prediction
    /// samples, plus the offsets of its span count and of its per-app
    /// compute-time map's count.
    fn empty_record() -> (Vec<u8>, usize, usize) {
        let bytes = encode(&RunRecord {
            result: SimResult { events_dispatched: 3, ..SimResult::default() },
            counters: EventCounters::default(),
            mismatches: Vec::new(),
            trace_text: None,
        });
        // Tail: the compute-time map's count, three prediction sums, span
        // count, events_dispatched, 38 counters, end marker.
        let spans_at = bytes.len() - END.len() - 38 * 8 - 8 - 8;
        (bytes, spans_at, spans_at - 3 * 16 - 8)
    }

    #[test]
    fn huge_counts_read_as_none_without_allocating() {
        let (good, spans_at, map_at) = empty_record();
        assert!(decode_record(&good, "salt", "label").is_some());
        // The empty map's count, then the first empty sum: count 0, `-0.0`.
        let sum_bits = (-0.0f64).to_bits().to_le_bytes();
        assert_eq!(good[map_at..map_at + 24], [[0; 8], [0; 8], sum_bits].concat());
        let doctored =
            [(spans_at, 1u64 << 32), (spans_at, u64::MAX), (map_at, 1 << 40), (map_at, u64::MAX)];
        for (at, n) in doctored {
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&n.to_le_bytes());
            // Unbounded, a span count of 2^32 would abort the process
            // inside an allocation instead of missing.
            assert!(decode_record(&bad, "salt", "label").is_none(), "count {n} at {at}");
        }
    }

    /// A histogram of `bins` bins of `width` ps holding `samples`.
    fn hist_of(width: u64, bins: usize, samples: &[u64]) -> Histogram {
        let mut h = Histogram::new(width, bins);
        for &s in samples {
            h.record(s);
        }
        h
    }

    /// A record in which every cached field holds its own value, none of
    /// them its type's default.
    fn full_record() -> RunRecord {
        let app = |base: u64, name: &str, runtimes: &[u64], starved| AppStats {
            name: name.into(),
            dags_completed: base + 1,
            dag_deadlines_met: base + 2,
            nodes_completed: base + 3,
            node_deadlines_met: base + 4,
            dag_runtimes: runtimes.iter().map(|&ps| Dur::from_ps(ps)).collect(),
            deadline: Dur::from_ps(base + 5),
            edges_consumed: base + 6,
            forwards: base + 7,
            colocations: base + 8,
            starved,
        };
        let class = |k: u64| {
            let base = 300 + 100 * k;
            ClassServiceStats {
                arrivals: base + 1,
                admitted: base + 2,
                shed_bucket: base + 3,
                shed_capacity: base + 4,
                shed_breaker: base + 5,
                timed_out: base + 6,
                hedged: base + 7,
                completed: base + 8,
                dag_deadlines_met: base + 9,
                nodes_measured: base + 10,
                node_deadlines_met: base + 11,
                // In-range samples and one past the last bin each.
                sojourn: hist_of(10 + k, 4, &[base + 12, 3, 2 * (10 + k), 9_000 + k]),
                node_latency: hist_of(20 + k, 3, &[base + 13, 5, 7_000 + k]),
            }
        };
        let stats = RunStats {
            policy: "RELIEF".into(),
            exec_time: Dur::from_ps(1),
            traffic: TrafficStats {
                dram_read_bytes: 2,
                dram_write_bytes: 3,
                spad_to_spad_bytes: 4,
                colocated_bytes: 5,
                spad_access_bytes: 6,
                all_dram_bytes: 7,
            },
            apps: BTreeMap::from([
                ("C".into(), app(10, "canny", &[17, 18], false)),
                ("D".into(), app(20, "deblur", &[27], true)),
            ]),
            accel_busy: Dur::from_ps(31),
            interconnect_busy: Dur::from_ps(32),
            dram_busy: Dur::from_ps(33),
            scheduler_ops: 34,
            scheduler_time: Dur::from_ps(35),
            edges_total: 36,
            faults: FaultStats {
                task_faults: 41,
                dma_faults: 42,
                task_retries: 43,
                tasks_aborted: 44,
                recovered: 45,
                unit_quarantines: 46,
                fault_attributed_misses: 47,
                ecc_faults: 48,
                forward_invalidations: 49,
                channel_outages: 50,
            },
            service: ServiceStats {
                warmup_ps: 51,
                duration_ps: 52,
                classes: [class(0), class(1), class(2)],
                timeout_cancelled_xfers: 53,
                retry_hist: hist_of(30, 2, &[54, 1_000]),
                open_hist: hist_of(0, 0, &[55, 56]),
            },
        };
        let span = |base: u64, label: &str| Span {
            inst: base as usize + 1,
            start: Time::from_ps(base + 2),
            end: Time::from_ps(base + 3),
            key: TaskKey::new(base as u32 + 4, base as u32 + 5),
            label: label.into(),
            forwarded_inputs: base as u32 + 6,
            colocated_inputs: base as u32 + 7,
        };
        let times = |base: u64| {
            BTreeMap::from([("C".into(), Dur::from_ps(base)), ("D".into(), Dur::from_ps(base + 1))])
        };
        let result = SimResult {
            stats,
            per_app_mem_time: times(61),
            per_app_compute_time: times(63),
            prediction: PredictionStats {
                compute_rel_errors: ErrorSum { count: 65, sum: 0.25 },
                dm_rel_errors: ErrorSum { count: 66, sum: -0.0 },
                bw_rel_errors: ErrorSum { count: 67, sum: -1.5 },
            },
            trace: Trace { spans: vec![span(70, "C:n3"), span(80, "D:n0")] },
            events_dispatched: 91,
            // Host-side and not cached: a decoded record reads 0.
            live_high_water: 92,
        };
        let counters = EventCounters {
            tasks_completed: 101,
            dags_arrived: 102,
            dags_done: 103,
            dags_met: 104,
            dram_read_bytes: 105,
            dram_write_bytes: 106,
            spad_to_spad_bytes: 107,
            forwards: 108,
            colocations: 109,
            dram_inputs: 110,
            escalations_granted: 111,
            escalations_denied: 112,
            feasibility_pass: 113,
            feasibility_fail: 114,
            queue_bypasses: 115,
            writebacks: 116,
            writeback_bytes: 117,
            task_faults: 118,
            task_retries: 119,
            tasks_aborted: 120,
            dma_faults: 121,
            unit_quarantines: 122,
            unit_restores: 123,
            fault_attributed_misses: 124,
            stream_arrivals: 125,
            requests_admitted: 126,
            requests_shed_bucket: 127,
            requests_shed_capacity: 128,
            requests_completed: 129,
            ecc_faults: 130,
            dma_cancels: 131,
            channel_outages: 132,
            requests_shed_breaker: 133,
            requests_timed_out: 134,
            hedges_launched: 135,
            breaker_opens: 136,
            breaker_half_opens: 137,
            breaker_closes: 138,
        };
        RunRecord { result, counters, mismatches: Vec::new(), trace_text: None }
    }

    /// Encodes `rec` as `write_pack` stores it, under a fixed salt and label.
    fn encode(rec: &RunRecord) -> Vec<u8> {
        encode_record("salt", "label", rec)
    }

    /// Pins the record layout: any reordered, added or dropped field moves
    /// the digest (bump [`SCHEMA`] with it), and a decoder that lost a
    /// field fails the round trip.
    #[test]
    fn record_layout_is_pinned_and_round_trips_every_field() {
        let rec = full_record();
        let bytes = encode(&rec);
        assert_eq!(fnv1a(&bytes), 0xa261_73ba_e10d_eebc, "the record layout changed");
        let (result, counters) = decode_record(&bytes, "salt", "label").expect("decodes");
        assert_eq!(result.stats, rec.result.stats);
        assert_eq!(result.per_app_mem_time, rec.result.per_app_mem_time);
        assert_eq!(result.per_app_compute_time, rec.result.per_app_compute_time);
        let sums = |p: &PredictionStats| {
            [p.compute_rel_errors, p.dm_rel_errors, p.bw_rel_errors]
                .map(|s| (s.count, s.sum.to_bits()))
        };
        assert_eq!(sums(&result.prediction), sums(&rec.result.prediction));
        assert_eq!(result.trace, rec.result.trace);
        assert_eq!(result.events_dispatched, rec.result.events_dispatched);
        assert_eq!(result.live_high_water, 0);
        assert_eq!(counters, rec.counters);
        let back = RunRecord { result, counters, mismatches: Vec::new(), trace_text: None };
        assert_eq!(encode(&back), bytes, "re-encoding the decoded record");
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
