//! The paper's contention scenarios (§IV-C).
//!
//! * **Low**: each application alone.
//! * **Medium**: every pair of applications.
//! * **High**: every triple (mixes of four or more meet almost no
//!   deadlines and are not evaluated).
//! * **Continuous**: the high-contention triples, with each application
//!   re-instantiated in a loop, capped at 50 ms of simulated time.

use crate::apps::App;
use relief_accel::AppSpec;
use relief_sim::Time;
use std::fmt;

/// Continuous-contention simulation cap (§IV-C).
pub const CONTINUOUS_TIME_LIMIT: Time = Time::from_ms(50);

/// Contention level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Contention {
    /// Single applications.
    Low,
    /// All pairs.
    Medium,
    /// All triples.
    High,
    /// All triples, looping, for 50 ms.
    Continuous,
}

impl Contention {
    /// The four levels in paper order (Figs. 4–8 subfigures a–d).
    pub const ALL: [Contention; 4] =
        [Contention::Low, Contention::Medium, Contention::High, Contention::Continuous];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Contention::Low => "low",
            Contention::Medium => "medium",
            Contention::High => "high",
            Contention::Continuous => "continuous",
        }
    }

    /// The application mixes of this level, in the paper's order
    /// (lexicographic by symbol).
    pub fn mixes(self) -> Vec<Mix> {
        let k = match self {
            Contention::Low => 1,
            Contention::Medium => 2,
            Contention::High | Contention::Continuous => 3,
        };
        combinations(&App::ALL, k)
            .into_iter()
            .map(|apps| Mix { apps, continuous: self == Contention::Continuous })
            .collect()
    }
}

impl fmt::Display for Contention {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One application mix (e.g. `CDG`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mix {
    /// The applications, in symbol order.
    pub apps: Vec<App>,
    /// Whether each application loops (continuous contention).
    pub continuous: bool,
}

impl Mix {
    /// The mix's label as used in the paper's figures (e.g. `"CDG"`).
    pub fn label(&self) -> String {
        self.apps.iter().map(|a| a.symbol()).collect()
    }

    /// Builds the simulator workload for this mix. All applications arrive
    /// at t = 0; continuous mixes re-arrive on completion.
    pub fn workload(&self) -> Vec<AppSpec> {
        self.apps
            .iter()
            .map(|a| {
                if self.continuous {
                    AppSpec::continuous(a.symbol(), a.dag())
                } else {
                    AppSpec::once(a.symbol(), a.dag())
                }
            })
            .collect()
    }
}

impl fmt::Display for Mix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// All size-`k` combinations of `items`, preserving order.
fn combinations<T: Copy>(items: &[T], k: usize) -> Vec<Vec<T>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    if items.len() < k {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, &first) in items.iter().enumerate() {
        for mut rest in combinations(&items[i + 1..], k - 1) {
            rest.insert(0, first);
            out.push(rest);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_counts_match_paper() {
        assert_eq!(Contention::Low.mixes().len(), 5);
        assert_eq!(Contention::Medium.mixes().len(), 10);
        assert_eq!(Contention::High.mixes().len(), 10);
        assert_eq!(Contention::Continuous.mixes().len(), 10);
    }

    #[test]
    fn mix_labels_match_figure_order() {
        let med: Vec<String> = Contention::Medium.mixes().iter().map(Mix::label).collect();
        assert_eq!(med, vec!["CD", "CG", "CH", "CL", "DG", "DH", "DL", "GH", "GL", "HL"]);
        let high: Vec<String> = Contention::High.mixes().iter().map(Mix::label).collect();
        assert_eq!(
            high,
            vec!["CDG", "CDH", "CDL", "CGH", "CGL", "CHL", "DGH", "DGL", "DHL", "GHL"]
        );
    }

    #[test]
    fn continuous_mixes_loop() {
        for mix in Contention::Continuous.mixes() {
            assert!(mix.continuous);
            assert!(mix.workload().iter().all(|a| a.repeat));
        }
        for mix in Contention::High.mixes() {
            assert!(!mix.continuous);
            assert!(mix.workload().iter().all(|a| !a.repeat));
        }
    }

    #[test]
    fn workload_symbols_match_apps() {
        let mix = &Contention::High.mixes()[0]; // CDG
        let syms: Vec<_> = mix.workload().iter().map(|a| a.symbol.clone()).collect();
        assert_eq!(syms, vec!["C", "D", "G"]);
    }

    #[test]
    fn combinations_basics() {
        assert_eq!(combinations(&[1, 2, 3], 2), vec![vec![1, 2], vec![1, 3], vec![2, 3]]);
        assert_eq!(combinations(&[1], 2), Vec::<Vec<i32>>::new());
        assert_eq!(combinations(&[1, 2], 0), vec![Vec::<i32>::new()]);
    }
}
