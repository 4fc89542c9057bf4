//! Event-kind subscription: [`Kind`], the fieldless twin of
//! [`EventKind`], and [`KindSet`], the bitmask a sink uses to declare the
//! kinds it consumes.
//!
//! A [`Tracer`](crate::Tracer) keeps the union of its sinks' sets; an
//! event of a kind outside that union costs one mask test and is never
//! delivered (for plain-data kinds it is never even built).

use crate::event::EventKind;

/// Declares [`Kind`] with one variant per [`EventKind`] variant, in the
/// same order, plus [`Kind::ALL`] and [`EventKind::kind`].
macro_rules! kinds {
    ($($name:ident),* $(,)?) => {
        /// The variant of an [`EventKind`], without its fields.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Kind {
            $(
                #[doc = concat!("[`EventKind::", stringify!($name), "`].")]
                $name,
            )*
        }

        impl Kind {
            /// Every kind, in declaration order (`ALL[i] as usize == i`).
            pub const ALL: [Kind; [$(Kind::$name),*].len()] = [$(Kind::$name),*];
        }

        impl EventKind {
            /// Which variant this event is.
            #[inline]
            #[must_use]
            pub fn kind(&self) -> Kind {
                match self {
                    $(EventKind::$name { .. } => Kind::$name,)*
                }
            }
        }
    };
}

kinds! {
    EventDispatched,
    ResourceBusy,
    DmaStart,
    DmaEnd,
    DmaCancelled,
    ChannelOutage,
    EscalationGranted,
    EscalationDenied,
    FeasibilityCheck,
    QueueBypass,
    DagArrived,
    TaskReady,
    TaskDispatched,
    InputSourced,
    ComputeStart,
    ComputeEnd,
    WritebackIssued,
    DagDone,
    TaskFaulted,
    TaskRetried,
    TaskAborted,
    DmaFaulted,
    UnitQuarantined,
    UnitRestored,
    FaultAttributedMiss,
    EccCorrupted,
    StreamArrival,
    RequestAdmitted,
    RequestShed,
    RequestCompleted,
    RequestTimedOut,
    HedgeLaunched,
    BreakerOpened,
    BreakerHalfOpen,
    BreakerClosed,
}

const _: () = assert!(Kind::ALL.len() <= 64, "KindSet is a u64 bitmask");

/// A set of [`Kind`]s: bit `k as u32` is set when `k` is a member. The
/// default is the empty set.
///
/// # Examples
///
/// ```
/// use relief_trace::{Kind, KindSet};
///
/// const SPANS: KindSet = KindSet::of(&[Kind::ComputeStart, Kind::ComputeEnd]);
/// assert!(SPANS.contains(Kind::ComputeEnd));
/// assert!(!SPANS.contains(Kind::EventDispatched));
/// assert!(KindSet::ALL.contains(Kind::EventDispatched));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindSet(u64);

impl KindSet {
    /// Every kind.
    pub const ALL: KindSet = KindSet::of(&Kind::ALL);

    /// The set holding exactly `kinds`.
    #[must_use]
    pub const fn of(kinds: &[Kind]) -> KindSet {
        let mut bits = 0;
        let mut i = 0;
        while i < kinds.len() {
            bits |= 1 << kinds[i] as u32;
            i += 1;
        }
        KindSet(bits)
    }

    /// True when `kind` is a member.
    #[inline]
    #[must_use]
    pub const fn contains(self, kind: Kind) -> bool {
        self.0 & (1 << kind as u32) != 0
    }

    /// True when the set has no members.
    #[inline]
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Members of either set.
    #[must_use]
    pub const fn union(self, other: KindSet) -> KindSet {
        KindSet(self.0 | other.0)
    }

    /// Members of `self` that are not in `other`.
    #[must_use]
    pub const fn without(self, other: KindSet) -> KindSet {
        KindSet(self.0 & !other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_algebra() {
        let a = KindSet::of(&[Kind::TaskReady, Kind::DagDone]);
        let b = KindSet::of(&[Kind::DagDone, Kind::BreakerClosed]);
        let u = a.union(b);
        assert!(u.contains(Kind::TaskReady) && u.contains(Kind::BreakerClosed));
        let d = u.without(b);
        assert_eq!(d, KindSet::of(&[Kind::TaskReady]));
        assert!(KindSet::default().is_empty() && !d.is_empty());
        assert_eq!(KindSet::ALL.without(KindSet::ALL), KindSet::default());
        assert!(Kind::ALL.iter().all(|&k| KindSet::ALL.contains(k)));
    }
}
