//! Table II — preferred eNVM per DNN use case, task, storage strategy, and
//! optimization priority. "Opt" picks among optimistic cells, "Alt" among
//! pessimistic + reference cells (the paper's two assumption regimes).

use crate::experiments::fig6::provision_mib;
use crate::experiments::shared::{read_edp, read_edp_study, study};
use crate::{Experiment, Finding};
use nvmexplorer_core::config::CellSelection;
use nvmexplorer_core::intermittent::{daily_energy, IntermittentScenario};
use nvmexplorer_core::sweep::StudyResult;
use nvmx_celldb::{CellDefinition, CellFlavor, TechnologyClass};
use nvmx_viz::{AsciiTable, Csv};
use nvmx_workloads::dnn::{albert, albert_embeddings_only, resnet26, DnnUseCase, StoragePolicy};

/// Selection priority for a Table II row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Priority {
    LowPowerOrEnergy,
    HighDensity,
}

/// One Table II scenario row.
struct Scenario {
    use_case_label: String,
    task: String,
    storage: String,
    use_case: DnnUseCase,
    intermittent: bool,
}

fn scenarios() -> Vec<Scenario> {
    let mk =
        |use_case_label: &str, task: &str, storage: &str, uc: DnnUseCase, inter: bool| Scenario {
            use_case_label: use_case_label.into(),
            task: task.into(),
            storage: storage.into(),
            use_case: uc,
            intermittent: inter,
        };
    vec![
        mk(
            "Continuous(60IPS)",
            "Single-Task Image Classification",
            "Weights Only",
            DnnUseCase::single(resnet26(), StoragePolicy::WeightsOnly),
            false,
        ),
        mk(
            "Continuous(60IPS)",
            "Single-Task Image Classification",
            "Weights + Acts",
            DnnUseCase::single(resnet26(), StoragePolicy::WeightsAndActivations),
            false,
        ),
        mk(
            "Continuous(60IPS)",
            "Multi-Task Image Processing",
            "Weights Only",
            DnnUseCase::multi(resnet26(), StoragePolicy::WeightsOnly),
            false,
        ),
        mk(
            "Continuous(60IPS)",
            "Multi-Task Image Processing",
            "Weights + Acts",
            DnnUseCase::multi(resnet26(), StoragePolicy::WeightsAndActivations),
            false,
        ),
        mk(
            "Intermittent(1IPS)",
            "Single-Task Image Classification",
            "Weights Only",
            DnnUseCase::single(resnet26(), StoragePolicy::WeightsOnly),
            true,
        ),
        mk(
            "Intermittent(1IPS)",
            "Multi-Task Image Processing",
            "Weights Only",
            DnnUseCase::multi(resnet26(), StoragePolicy::WeightsOnly),
            true,
        ),
        mk(
            "Intermittent(1IPS)",
            "Sentence Classification (ALBERT)",
            "Embeddings Only",
            DnnUseCase::single(albert_embeddings_only(), StoragePolicy::WeightsOnly),
            true,
        ),
        mk(
            "Intermittent(1IPS)",
            "Sentence Classification (ALBERT)",
            "All Weights",
            DnnUseCase::single(albert(), StoragePolicy::WeightsOnly),
            true,
        ),
        mk(
            "Intermittent(1IPS)",
            "Multi-Task NLP (ALBERT)",
            "All Weights",
            DnnUseCase::multi(albert(), StoragePolicy::WeightsOnly),
            true,
        ),
    ]
}

/// The capacity a scenario's weights are provisioned at, in MiB (at least
/// the 2 MB NVDLA buffer).
fn scenario_mib(scenario: &Scenario) -> u64 {
    provision_mib(scenario.use_case.stored_weight_bytes()).max(2)
}

/// Scores a cell for one scenario; lower is better. Returns `None` when the
/// cell is excluded (infeasible at 60 FPS continuous).
fn score(
    result: &StudyResult,
    cell: &CellDefinition,
    scenario: &Scenario,
    priority: Priority,
) -> Option<f64> {
    let (array, evaluations) = read_edp(result, &cell.name, scenario_mib(scenario));
    if scenario.intermittent {
        let s = IntermittentScenario {
            name: scenario.task.clone(),
            read_bytes_per_event: scenario.use_case.read_bytes_per_inference(),
            write_bytes_per_event: scenario.use_case.write_bytes_per_inference(),
            weight_bytes: scenario.use_case.stored_weight_bytes(),
            access_bytes: 32,
        };
        // Feasibility at 1 IPS is trivially satisfied; latency budget is 1 s.
        match priority {
            Priority::LowPowerOrEnergy => {
                Some(daily_energy(array, &s, 86_400.0).per_event().value())
            }
            Priority::HighDensity => Some(-array.density_mbit_per_mm2()),
        }
    } else {
        let traffic = scenario.use_case.continuous_traffic(60.0);
        let eval = (evaluations.iter())
            .find(|eval| *eval.traffic == traffic)
            .expect("the study evaluates every continuous scenario");
        if !eval.is_feasible() {
            return None;
        }
        match priority {
            Priority::LowPowerOrEnergy => Some(eval.total_power().value()),
            Priority::HighDensity => Some(-array.density_mbit_per_mm2()),
        }
    }
}

fn winner(
    result: &StudyResult,
    cells: &[CellDefinition],
    scenario: &Scenario,
    priority: Priority,
    flavor_filter: impl Fn(&CellFlavor) -> bool,
) -> Option<TechnologyClass> {
    cells
        .iter()
        .filter(|c| c.technology.is_nonvolatile() && flavor_filter(&c.flavor))
        .filter_map(|c| score(result, c, scenario, priority).map(|s| (c.technology, s)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(t, _)| t)
}

/// Regenerates Table II.
pub fn run() -> Experiment {
    // One study: every cell at every scenario's provisioned capacity,
    // under every continuous scenario's traffic.
    let scenarios = scenarios();
    let capacities_mib: Vec<u64> = scenarios.iter().map(scenario_mib).collect();
    let patterns = (scenarios.iter())
        .filter(|scenario| !scenario.intermittent)
        .map(|scenario| scenario.use_case.continuous_traffic(60.0))
        .collect();
    let cells = CellSelection::default();
    let config = read_edp_study("table2", cells, &capacities_mib, 256, patterns);
    let result = study(&config);
    let cells = config.cells.resolve();
    let mut csv = Csv::new([
        "use_case", "task", "storage", "priority", "opt_envm", "alt_envm",
    ]);
    let mut table = AsciiTable::new(vec![
        "use case".into(),
        "task".into(),
        "storage".into(),
        "priority".into(),
        "Opt".into(),
        "Alt".into(),
    ]);

    // The paper's density pattern applies to weights-only rows; with
    // activations stored, slow writers (CTT) get excluded and RRAM appears
    // in the Alt column (exactly as in Table II's Weights+Acts rows).
    let mut density_opt_all_fefet = true;
    let mut density_alt_weights_only_all_ctt = true;
    let mut density_alt_with_acts: Vec<TechnologyClass> = Vec::new();
    let mut single_task_intermittent_winner = None;
    let mut continuous_low_power_winners: Vec<TechnologyClass> = Vec::new();

    for scenario in &scenarios {
        for (priority, label) in [
            (
                Priority::LowPowerOrEnergy,
                if scenario.intermittent {
                    "Low Energy/Inf"
                } else {
                    "Low Power"
                },
            ),
            (Priority::HighDensity, "High Density"),
        ] {
            let opt = winner(&result, &cells, scenario, priority, |f| {
                matches!(f, CellFlavor::Optimistic)
            });
            let alt = winner(&result, &cells, scenario, priority, |f| {
                matches!(f, CellFlavor::Pessimistic | CellFlavor::Reference)
            });
            let fmt =
                |t: Option<TechnologyClass>| t.map_or("-".to_owned(), |t| t.label().to_owned());
            csv.row([
                scenario.use_case_label.clone(),
                scenario.task.clone(),
                scenario.storage.clone(),
                label.to_owned(),
                fmt(opt),
                fmt(alt),
            ]);
            table.row(vec![
                scenario.use_case_label.clone(),
                scenario.task.clone(),
                scenario.storage.clone(),
                label.to_owned(),
                fmt(opt),
                fmt(alt),
            ]);
            if priority == Priority::HighDensity {
                density_opt_all_fefet &= opt == Some(TechnologyClass::FeFet);
                if scenario.storage.contains("Acts") {
                    if let Some(t) = alt {
                        density_alt_with_acts.push(t);
                    }
                } else {
                    density_alt_weights_only_all_ctt &= alt == Some(TechnologyClass::Ctt);
                }
            } else if scenario.intermittent && scenario.task.contains("Single-Task Image") {
                single_task_intermittent_winner = opt;
            } else if !scenario.intermittent {
                if let Some(t) = opt {
                    continuous_low_power_winners.push(t);
                }
            }
        }
    }

    let mut distinct = continuous_low_power_winners.clone();
    distinct.extend(density_alt_with_acts.iter().copied());
    distinct.extend(single_task_intermittent_winner);
    if density_opt_all_fefet {
        distinct.push(TechnologyClass::FeFet);
    }
    distinct.sort_unstable();
    distinct.dedup();

    let findings = vec![
        Finding::new(
            "high-density preference: FeFET under optimistic assumptions; CTT under \
             pessimistic for weights-only rows, RRAM once activations are stored \
             (Table II's density columns)",
            format!(
                "opt-all-FeFET: {density_opt_all_fefet}, weights-only-alt-all-CTT: \
                 {density_alt_weights_only_all_ctt}, with-acts alt: {density_alt_with_acts:?}"
            ),
            density_opt_all_fefet
                && density_alt_weights_only_all_ctt
                && density_alt_with_acts
                    .iter()
                    .all(|t| *t == TechnologyClass::Rram),
        ),
        Finding::new(
            "intermittent single-task image classification prefers RRAM for energy/inference",
            format!("{single_task_intermittent_winner:?}"),
            single_task_intermittent_winner == Some(TechnologyClass::Rram),
        ),
        Finding::new(
            "continuous low-power winners come from {PCM, RRAM, STT}",
            format!("{continuous_low_power_winners:?}"),
            continuous_low_power_winners.iter().all(|t| {
                matches!(
                    t,
                    TechnologyClass::Pcm | TechnologyClass::Rram | TechnologyClass::Stt
                )
            }),
        ),
        Finding::new(
            "no single eNVM wins every use case (the paper's central cross-stack thesis)",
            format!("distinct winning technologies across Table II: {distinct:?}"),
            distinct.len() >= 2,
        ),
    ];

    Experiment {
        id: "table2".into(),
        title: "Preferred eNVM per DNN use case and optimization priority".into(),
        csv: vec![("table2_preferred_envm".into(), csv)],
        plots: vec![],
        summary: table.render(),
        findings,
    }
}
