//! Compute-time profiling (§III-B "Compute time prediction").

use relief_dag::AccTypeId;
use relief_sim::{Dur, Intern, InternId, KindId};
use std::collections::HashMap;

/// Per-(accelerator, operation) compute-time profile.
///
/// Fixed-function accelerators have data-independent control flow, so the
/// compute time for a given operation and input size barely varies; the
/// paper profiles each kernel once (at design time or boot) and reports a
/// mean prediction error of 0.03 % (Observation 7, Table VIII). This
/// profile keeps a running mean per `(accelerator type, label)` pair and
/// predicts that mean.
///
/// Labels are interned to dense [`KindId`]s internally, so the id-based
/// [`predict_id`](ComputeProfile::predict_id) — the per-ready-queue-
/// insertion hot-path call — is two array indexes with no hashing. The
/// string-keyed [`observe`](ComputeProfile::observe)/
/// [`predict`](ComputeProfile::predict) API is preserved on top and
/// deliberately kept on the pre-interning nested-`HashMap` storage: it is
/// the simulator's reference-hot-path cost model, so its per-call cost
/// (two hash lookups) must not quietly improve. Both stores hold the
/// same observations.
///
/// # Examples
///
/// ```
/// use relief_core::ComputeProfile;
/// use relief_dag::AccTypeId;
/// use relief_sim::Dur;
///
/// let mut profile = ComputeProfile::new();
/// profile.observe(AccTypeId(1), "conv5x5", Dur::from_us_f64(1545.61));
/// assert_eq!(profile.predict(AccTypeId(1), "conv5x5"), Some(Dur::from_us_f64(1545.61)));
/// assert_eq!(profile.predict(AccTypeId(1), "conv3x3"), None);
///
/// // Hot-path form: intern once, predict by id thereafter.
/// let conv = profile.intern_kind("conv5x5");
/// assert_eq!(profile.predict_id(AccTypeId(1), conv), profile.predict(AccTypeId(1), "conv5x5"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ComputeProfile {
    /// `(sum, count)` per `[acc type][kind id]`; `count == 0` marks
    /// never-observed slots. Both axes are dense small integers.
    table: Vec<Vec<(Dur, u64)>>,
    kinds: Intern<KindId>,
    /// Pre-interning storage kept verbatim for the string-keyed API. The
    /// simulator's reference hot path predicts through this map so its
    /// cost stays two hash lookups, exactly as before the dense table
    /// existed. Mirrors `table` observation-for-observation.
    legacy: HashMap<AccTypeId, HashMap<String, (Dur, u64)>>,
}

impl ComputeProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `label`, returning its dense [`KindId`] for use with the
    /// id-based observe/predict calls. Idempotent and stable.
    pub fn intern_kind(&mut self, label: &str) -> KindId {
        self.kinds.intern(label)
    }

    /// Records an observed compute time for `(acc, label)`.
    pub fn observe(&mut self, acc: AccTypeId, label: &str, compute: Dur) {
        let kind = self.kinds.intern(label);
        self.observe_id(acc, kind, compute);
    }

    /// Records an observed compute time for an already-interned kind.
    pub fn observe_id(&mut self, acc: AccTypeId, kind: KindId, compute: Dur) {
        let label = self.kinds.resolve(kind);
        let by_label = self.legacy.entry(acc).or_default();
        let (sum, count) = match by_label.get_mut(label) {
            Some(slot) => slot,
            None => by_label.entry(label.to_string()).or_insert((Dur::ZERO, 0)),
        };
        *sum += compute;
        *count += 1;
        let a = acc.0 as usize;
        if a >= self.table.len() {
            self.table.resize(a + 1, Vec::new());
        }
        let row = &mut self.table[a];
        let k = kind.index();
        if k >= row.len() {
            row.resize(k + 1, (Dur::ZERO, 0));
        }
        let (sum, count) = &mut row[k];
        *sum += compute;
        *count += 1;
    }

    /// Predicted compute time: the mean of observations for `(acc, label)`,
    /// or `None` if never observed. Costs two hash lookups — this is the
    /// reference cost model and must stay on the legacy store.
    pub fn predict(&self, acc: AccTypeId, label: &str) -> Option<Dur> {
        let (sum, count) = self.legacy.get(&acc)?.get(label)?;
        Some(*sum / *count)
    }

    /// Predicted compute time by interned kind: two array indexes, no
    /// hashing. `None` if `(acc, kind)` was never observed.
    pub fn predict_id(&self, acc: AccTypeId, kind: KindId) -> Option<Dur> {
        let (sum, count) = self.table.get(acc.0 as usize)?.get(kind.index())?;
        if *count == 0 {
            return None;
        }
        Some(*sum / *count)
    }

    /// Number of distinct profiled (accelerator, operation) pairs.
    pub fn len(&self) -> usize {
        self.table
            .iter()
            .map(|row| row.iter().filter(|(_, count)| *count > 0).count())
            .sum()
    }

    /// True if nothing has been profiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean() {
        let mut p = ComputeProfile::new();
        p.observe(AccTypeId(0), "op", Dur::from_us(10));
        p.observe(AccTypeId(0), "op", Dur::from_us(20));
        assert_eq!(p.predict(AccTypeId(0), "op"), Some(Dur::from_us(15)));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn keys_are_per_acc_and_label() {
        let mut p = ComputeProfile::new();
        p.observe(AccTypeId(0), "a", Dur::from_us(1));
        p.observe(AccTypeId(1), "a", Dur::from_us(2));
        p.observe(AccTypeId(0), "b", Dur::from_us(3));
        assert_eq!(p.len(), 3);
        assert_eq!(p.predict(AccTypeId(1), "a"), Some(Dur::from_us(2)));
        assert!(p.predict(AccTypeId(1), "b").is_none());
    }

    #[test]
    fn empty_profile() {
        let p = ComputeProfile::new();
        assert!(p.is_empty());
        assert_eq!(p.predict(AccTypeId(0), "x"), None);
    }

    #[test]
    fn id_api_matches_string_api() {
        let mut p = ComputeProfile::new();
        let conv = p.intern_kind("conv");
        let gemm = p.intern_kind("gemm");
        p.observe_id(AccTypeId(2), conv, Dur::from_us(7));
        p.observe(AccTypeId(2), "conv", Dur::from_us(9));
        assert_eq!(p.predict_id(AccTypeId(2), conv), Some(Dur::from_us(8)));
        assert_eq!(p.predict(AccTypeId(2), "conv"), Some(Dur::from_us(8)));
        // Interned but never observed on this accelerator.
        assert_eq!(p.predict_id(AccTypeId(2), gemm), None);
        assert_eq!(p.predict_id(AccTypeId(0), conv), None);
    }
}
