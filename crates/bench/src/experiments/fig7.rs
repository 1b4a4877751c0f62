//! Fig. 7 — total memory energy vs inferences per day for intermittent
//! operation: ResNet26 image classification (left) and ALBERT NLP (right).

use crate::experiments::fig6::provision_mib;
use crate::experiments::shared::{read_edp, read_edp_study, study};
use crate::{Experiment, Finding};
use nvmexplorer_core::config::CellSelection;
use nvmexplorer_core::intermittent::{sweep_events_per_day, IntermittentScenario};
use nvmx_units::Capacity;
use nvmx_viz::{csv::num, Csv, ScatterPlot};
use nvmx_workloads::dnn::{albert, resnet26, DnnUseCase, StoragePolicy};

/// Where the energy curves of two technologies cross, if they do, searching
/// the sampled rates.
fn crossover(a: &[(f64, nvmx_units::Joules)], b: &[(f64, nvmx_units::Joules)]) -> Option<f64> {
    for (pa, pb) in a.iter().zip(b) {
        if pa.1.value() > pb.1.value() {
            return Some(pa.0);
        }
    }
    None
}

/// Regenerates both panels of Fig. 7.
pub fn run() -> Experiment {
    let steps = 15;
    let workloads = [
        (
            "image-classification",
            DnnUseCase::single(resnet26(), StoragePolicy::WeightsOnly),
        ),
        (
            "nlp-albert",
            DnnUseCase::single(albert(), StoragePolicy::WeightsOnly),
        ),
    ];

    // One study over both workloads' provisioned capacities. Only its
    // arrays are read; its traffic is each workload's inference stream at
    // one inference per second.
    let capacities_mib: Vec<u64> = (workloads.iter())
        .map(|(_, use_case)| provision_mib(use_case.stored_weight_bytes()))
        .collect();
    let patterns = (workloads.iter())
        .map(|(_, use_case)| use_case.continuous_traffic(1.0))
        .collect();
    let cells = CellSelection::default();
    let config = read_edp_study("fig7", cells, &capacities_mib, 256, patterns);
    let result = study(&config);
    let cells = config.cells.resolve();

    let mut csv = Csv::new(["workload", "cell", "inferences_per_day", "energy_j_per_day"]);
    let mut plots = Vec::new();
    let mut findings = Vec::new();
    let mut summary = String::new();
    let mut crossovers: Vec<(String, Option<f64>)> = Vec::new();
    type EnergyCurve = Vec<(f64, nvmx_units::Joules)>;
    let mut image_curves: Option<(EnergyCurve, EnergyCurve)> = None;

    for &(label, ref use_case) in &workloads {
        let scenario = IntermittentScenario {
            name: use_case.name.clone(),
            read_bytes_per_event: use_case.read_bytes_per_inference(),
            write_bytes_per_event: 0.0,
            weight_bytes: use_case.stored_weight_bytes(),
            access_bytes: 32,
        };
        let mib = provision_mib(use_case.stored_weight_bytes());
        let capacity = Capacity::from_mebibytes(mib);
        let mut plot = ScatterPlot::log_log(
            format!("Fig.7: daily memory energy vs inferences/day ({label}, {capacity})"),
            "inferences per day",
            "total memory energy per day (J)",
        );
        let mut fefet_curve = Vec::new();
        let mut stt_curve = Vec::new();
        for cell in &cells {
            let (array, _) = read_edp(&result, &cell.name, mib);
            let curve = sweep_events_per_day(array, &scenario, 1.0, 1.0e7, steps);
            for (rate, energy) in &curve {
                csv.row([
                    label.to_owned(),
                    cell.name.clone(),
                    num(*rate),
                    num(energy.value()),
                ]);
            }
            let points: Vec<(f64, f64)> = curve.iter().map(|(r, e)| (*r, e.value())).collect();
            plot.series(cell.name.clone(), points);
            if cell.name == "FeFET-opt" {
                fefet_curve = curve.clone();
            }
            if cell.name == "STT-opt" {
                stt_curve = curve;
            }
        }

        let cross = crossover(&fefet_curve, &stt_curve);
        match cross {
            Some(rate) => summary.push_str(&format!(
                "{label}: FeFET-opt cheaper below ~{rate:.0} inf/day, STT-opt above.\n"
            )),
            None => summary.push_str(&format!(
                "{label}: no FeFET/STT crossover in sampled range.\n"
            )),
        }
        crossovers.push((label.to_owned(), cross));
        if label == "image-classification" {
            image_curves = Some((fefet_curve, stt_curve));
        }
        plots.push((format!("fig7_{label}"), plot));
    }

    let image_cross = crossovers[0].1;
    let nlp_cross = crossovers[1].1;
    let (fefet_curve, stt_curve) = image_curves.expect("image workload ran");

    findings.push(Finding::new(
        "image classification: optimistic FeFET lowest energy at low wake-up rates, \
         optimistic STT takes over at higher rates (paper crossover ~1e5/day)",
        format!("crossover at {image_cross:?} inf/day"),
        image_cross.is_some_and(|r| (1.0e3..=1.0e6).contains(&r)),
    ));
    findings.push(Finding::new(
        "the crossover exists because FeFET arrays idle cheaper (smaller, less leaky) \
         while STT has lower energy-per-access",
        format!(
            "FeFET day-floor {:.3} J vs STT {:.3} J; high-rate: STT {:.2} J vs FeFET {:.2} J",
            fefet_curve[0].1.value(),
            stt_curve[0].1.value(),
            stt_curve.last().expect("nonempty").1.value(),
            fefet_curve.last().expect("nonempty").1.value(),
        ),
        fefet_curve[0].1.value() < stt_curve[0].1.value()
            && stt_curve.last().expect("nonempty").1.value()
                < fefet_curve.last().expect("nonempty").1.value(),
    ));
    findings.push(Finding::new(
        "for ALBERT, STT emerges as best at *lower* inference rates than for image \
         classification (more compute per inference)",
        format!("NLP crossover {nlp_cross:?} vs image {image_cross:?} inf/day"),
        match (nlp_cross, image_cross) {
            (Some(n), Some(i)) => n < i,
            _ => false,
        },
    ));

    Experiment {
        id: "fig7".into(),
        title: "Intermittent operation: daily energy vs wake-up frequency".into(),
        csv: vec![("fig7_energy_vs_rate".into(), csv)],
        plots,
        summary,
        findings,
    }
}
