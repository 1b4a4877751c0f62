//! Result exploration: the filter / sort semantics of the paper's
//! interactive dashboard (Sec. II-C), as a composable API.
//!
//! Every figure in the paper is "all evaluated results, filtered by
//! constraints, colored by technology, sorted by a metric" — this module is
//! that vocabulary.

use crate::config::Constraints;
use crate::eval::Evaluation;
use nvmx_celldb::TechnologyClass;
use serde::{Deserialize, Serialize};

/// Metrics results can be ranked by (lower is better unless noted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// Total operating power.
    TotalPower,
    /// Aggregated access latency per second of execution.
    AggregateLatency,
    /// Projected lifetime in years (higher is better).
    Lifetime,
    /// Storage density, Mb/mm² (higher is better).
    Density,
    /// Read energy per access.
    ReadEnergy,
    /// Array area.
    Area,
}

impl Objective {
    /// Scoring function: always lower-is-better (better-is-higher metrics
    /// negate).
    pub fn score(self, eval: &Evaluation) -> f64 {
        match self {
            Self::TotalPower => eval.total_power().value(),
            Self::AggregateLatency => eval.aggregate_latency.value(),
            Self::Lifetime => -eval.lifetime_years(),
            Self::Density => -eval.array.density_mbit_per_mm2(),
            Self::ReadEnergy => eval.array.read_energy.value(),
            Self::Area => eval.array.area.value(),
        }
    }
}

/// A filterable, sortable set of evaluations.
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    evaluations: Vec<Evaluation>,
}

impl ResultSet {
    /// Wraps a list of evaluations.
    pub fn new(evaluations: Vec<Evaluation>) -> Self {
        Self { evaluations }
    }

    /// The evaluations currently in the set.
    pub fn evaluations(&self) -> &[Evaluation] {
        &self.evaluations
    }

    /// Number of evaluations in the set.
    pub fn len(&self) -> usize {
        self.evaluations.len()
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.evaluations.is_empty()
    }

    /// Keeps only evaluations satisfying `predicate`.
    #[must_use]
    pub fn filter(&self, predicate: impl Fn(&Evaluation) -> bool) -> Self {
        Self {
            evaluations: self
                .evaluations
                .iter()
                .filter(|e| predicate(e))
                .cloned()
                .collect(),
        }
    }

    /// Keeps only arrays that can sustain their traffic (the paper's
    /// "able to meet application latency / bandwidth targets" exclusion).
    #[must_use]
    pub fn feasible(&self) -> Self {
        self.filter(Evaluation::is_feasible)
    }

    /// Applies a [`Constraints`] block (power / area / lifetime / read
    /// latency; accuracy constraints are enforced by the fault studies).
    #[must_use]
    pub fn constrained(&self, constraints: &Constraints) -> Self {
        self.filter(|e| constraints.admits(e))
    }

    /// Keeps one technology class.
    #[must_use]
    pub fn technology(&self, tech: TechnologyClass) -> Self {
        self.filter(|e| e.array.technology == tech)
    }

    /// Keeps evaluations whose area efficiency is at most `max` — the
    /// Fig. 12 "highlight low-area-efficiency arrays" filter.
    #[must_use]
    pub fn area_efficiency_at_most(&self, max: f64) -> Self {
        self.filter(|e| e.array.area_efficiency.value() <= max)
    }

    /// Best evaluation under an objective.
    pub fn best(&self, objective: Objective) -> Option<&Evaluation> {
        self.evaluations
            .iter()
            .min_by(|a, b| objective.score(a).total_cmp(&objective.score(b)))
    }

    /// All evaluations sorted best-first under an objective.
    pub fn leaderboard(&self, objective: Objective) -> Vec<&Evaluation> {
        let mut sorted: Vec<&Evaluation> = self.evaluations.iter().collect();
        sorted.sort_by(|a, b| objective.score(a).total_cmp(&objective.score(b)));
        sorted
    }

    /// Best evaluation per technology class, best-first overall.
    pub fn best_per_technology(&self, objective: Objective) -> Vec<&Evaluation> {
        let mut best: Vec<&Evaluation> = Vec::new();
        for tech in TechnologyClass::ALL {
            if let Some(winner) = self.technology(tech).best(objective) {
                // Re-find the reference in our own storage.
                if let Some(found) = self.evaluations.iter().find(|e| {
                    e.array.cell_name == winner.array.cell_name
                        && e.traffic.name == winner.traffic.name
                        && e.array.target == winner.array.target
                        && e.array.capacity == winner.array.capacity
                }) {
                    best.push(found);
                }
            }
        }
        best.sort_by(|a, b| objective.score(a).total_cmp(&objective.score(b)));
        best
    }

    /// The technologies present in the set.
    pub fn technologies(&self) -> Vec<TechnologyClass> {
        let mut techs: Vec<TechnologyClass> = self
            .evaluations
            .iter()
            .map(|e| e.array.technology)
            .collect();
        techs.sort_unstable();
        techs.dedup();
        techs
    }
}

impl FromIterator<Evaluation> for ResultSet {
    fn from_iter<I: IntoIterator<Item = Evaluation>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

impl Constraints {
    /// Whether one evaluation satisfies this constraint block — the
    /// per-row predicate behind [`ResultSet::constrained`], exposed so
    /// streaming/reporting paths can test rows without materializing a
    /// filtered set.
    pub fn admits(&self, e: &Evaluation) -> bool {
        self.max_power_w
            .is_none_or(|max| e.total_power().value() <= max)
            && self
                .max_area_mm2
                .is_none_or(|max| e.array.area.value() <= max)
            && self
                .min_lifetime_years
                .is_none_or(|min| e.lifetime_years() >= min)
            && self
                .max_read_latency_ns
                .is_none_or(|max| e.array.read_latency.value() * 1.0e9 <= max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use nvmx_celldb::{custom, tentpole, CellFlavor};
    use nvmx_nvsim::{characterize, ArrayConfig, OptimizationTarget};
    use nvmx_units::Capacity;
    use nvmx_workloads::TrafficPattern;

    fn sample_set() -> ResultSet {
        let traffic = TrafficPattern::new("t", 2.0e9, 20.0e6, 64);
        let mut evals = Vec::new();
        for tech in [
            TechnologyClass::Stt,
            TechnologyClass::Rram,
            TechnologyClass::FeFet,
        ] {
            for flavor in [CellFlavor::Optimistic, CellFlavor::Pessimistic] {
                let cell = tentpole::tentpole_cell(tech, flavor).unwrap();
                let array = characterize(
                    &cell,
                    &ArrayConfig::new(Capacity::from_mebibytes(2)),
                    OptimizationTarget::ReadEdp,
                )
                .unwrap();
                evals.push(evaluate(&array, &traffic));
            }
        }
        let sram = custom::sram_16nm();
        let array = characterize(
            &sram,
            &ArrayConfig::new(Capacity::from_mebibytes(2))
                .with_node(nvmx_units::Meters::from_nano(16.0)),
            OptimizationTarget::ReadEdp,
        )
        .unwrap();
        evals.push(evaluate(&array, &traffic));
        ResultSet::new(evals)
    }

    #[test]
    fn filters_compose() {
        let set = sample_set();
        let feasible = set.feasible();
        assert!(feasible.len() <= set.len());
        let stt = feasible.technology(TechnologyClass::Stt);
        assert!(stt
            .evaluations()
            .iter()
            .all(|e| e.array.technology == TechnologyClass::Stt));
    }

    #[test]
    fn constraints_prune() {
        let set = sample_set();
        let constrained = set.constrained(&Constraints {
            min_lifetime_years: Some(1.0),
            ..Constraints::default()
        });
        assert!(
            constrained.len() < set.len(),
            "RRAM should fall to the lifetime bar"
        );
        assert!(constrained
            .evaluations()
            .iter()
            .all(|e| e.lifetime_years() >= 1.0));
    }

    #[test]
    fn density_best_is_fefet_opt() {
        let set = sample_set();
        let best = set.best(Objective::Density).unwrap();
        assert_eq!(best.array.technology, TechnologyClass::FeFet);
        assert_eq!(best.array.flavor, CellFlavor::Optimistic);
    }

    #[test]
    fn lifetime_best_nvm_is_stt() {
        // SRAM trivially wins unlimited lifetime; among eNVMs STT leads
        // (paper Fig. 8).
        let set = sample_set();
        let nvms = set.feasible().filter(|e| e.array.nonvolatile);
        let best = nvms.best(Objective::Lifetime).unwrap();
        assert_eq!(best.array.technology, TechnologyClass::Stt);
    }

    #[test]
    fn leaderboard_is_sorted() {
        let set = sample_set();
        let board = set.leaderboard(Objective::TotalPower);
        for pair in board.windows(2) {
            assert!(pair[0].total_power().value() <= pair[1].total_power().value());
        }
    }

    #[test]
    fn best_per_technology_has_one_entry_per_class() {
        let set = sample_set();
        let best = set.best_per_technology(Objective::TotalPower);
        assert_eq!(best.len(), 4); // STT, RRAM, FeFET, SRAM
        let mut techs: Vec<_> = best.iter().map(|e| e.array.technology).collect();
        techs.dedup();
        assert_eq!(techs.len(), 4);
    }

    #[test]
    fn area_efficiency_filter() {
        let set = sample_set();
        let low_eff = set.area_efficiency_at_most(0.5);
        assert!(low_eff
            .evaluations()
            .iter()
            .all(|e| e.array.area_efficiency.value() <= 0.5));
    }
}
