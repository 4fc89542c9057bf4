//! First-divergence comparison of two event streams.
//!
//! The simulator is deterministic: identical configuration and seed must
//! produce identical event streams. `trace-diff` turns that guarantee
//! into a regression test — compare the text exports of two runs and the
//! first differing line localizes exactly when and where behavior
//! changed, which is far more actionable than a failing end-to-end
//! assertion.

use std::fmt;

/// Why two streams diverged at a given position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceCause {
    /// The left stream ended while the right continued.
    LeftEnded,
    /// The right stream ended while the left continued.
    RightEnded,
    /// Both have an event, at different simulated times.
    TimeMismatch,
    /// Same simulated time, different event content.
    ContentMismatch,
}

impl fmt::Display for DivergenceCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivergenceCause::LeftEnded => write!(f, "left stream ended early"),
            DivergenceCause::RightEnded => write!(f, "right stream ended early"),
            DivergenceCause::TimeMismatch => write!(f, "events at different times"),
            DivergenceCause::ContentMismatch => write!(f, "different events at the same time"),
        }
    }
}

/// The first point at which two streams disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 0-based position (event index or line number) of the disagreement.
    pub index: usize,
    /// Classification of the disagreement.
    pub cause: DivergenceCause,
    /// The left side's entry at `index`, if any.
    pub left: Option<String>,
    /// The right side's entry at `index`, if any.
    pub right: Option<String>,
}

impl Divergence {
    /// Human-readable multi-line report.
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = format!("divergence at entry {} ({}):\n", self.index, self.cause);
        out.push_str(&format!("  left:  {}\n", self.left.as_deref().unwrap_or("<end of stream>")));
        out.push_str(&format!("  right: {}\n", self.right.as_deref().unwrap_or("<end of stream>")));
        out
    }
}

/// Classifies a pair of text-format lines by comparing their leading
/// picosecond timestamps when both parse.
fn classify(left: &str, right: &str) -> DivergenceCause {
    let ts = |line: &str| line.split_whitespace().next().and_then(|t| t.parse::<u64>().ok());
    match (ts(left), ts(right)) {
        (Some(a), Some(b)) if a != b => DivergenceCause::TimeMismatch,
        _ => DivergenceCause::ContentMismatch,
    }
}

/// Finds the first differing line between two text-format exports.
/// `None` means the exports are byte-identical per line.
#[must_use]
pub fn first_divergence_lines(left: &str, right: &str) -> Option<Divergence> {
    let mut l = left.lines();
    let mut r = right.lines();
    let mut i = 0usize;
    loop {
        match (l.next(), r.next()) {
            (Some(a), Some(b)) if a == b => i += 1,
            (Some(a), Some(b)) => {
                return Some(Divergence {
                    index: i,
                    cause: classify(a, b),
                    left: Some(a.to_string()),
                    right: Some(b.to_string()),
                });
            }
            (None, Some(b)) => {
                return Some(Divergence {
                    index: i,
                    cause: DivergenceCause::LeftEnded,
                    left: None,
                    right: Some(b.to_string()),
                });
            }
            (Some(a), None) => {
                return Some(Divergence {
                    index: i,
                    cause: DivergenceCause::RightEnded,
                    left: Some(a.to_string()),
                    right: None,
                });
            }
            (None, None) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO: &str = "           100 dispatch #0\n           200 dispatch #1\n";

    #[test]
    fn identical_streams_have_no_divergence() {
        assert_eq!(first_divergence_lines(TWO, TWO), None);
    }

    #[test]
    fn time_vs_content_mismatch() {
        let later = "           100 dispatch #0\n           250 dispatch #1\n";
        let d = first_divergence_lines(TWO, later).expect("diverges");
        assert_eq!(d.index, 1);
        assert_eq!(d.cause, DivergenceCause::TimeMismatch);
        assert!(d.report().contains("different times"));

        let other = "           100 dispatch #0\n           200 dispatch #9\n";
        let d = first_divergence_lines(TWO, other).expect("diverges");
        assert_eq!(d.cause, DivergenceCause::ContentMismatch);
    }

    #[test]
    fn length_mismatch_reports_ended_side() {
        let one = "           100 dispatch #0\n";
        let d = first_divergence_lines(one, TWO).expect("diverges");
        assert_eq!(d.cause, DivergenceCause::LeftEnded);
        assert_eq!(d.index, 1);
        let d = first_divergence_lines(TWO, one).expect("diverges");
        assert_eq!(d.cause, DivergenceCause::RightEnded);
    }
}
