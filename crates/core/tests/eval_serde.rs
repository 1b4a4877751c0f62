//! Serde round-trip for [`Evaluation`] now that it holds its array behind
//! an `Arc`: the shared pointer must serialize inline (as the record) and
//! deserialize back into an equal value.

use nvmexplorer_core::eval::{evaluate, EvalKernel, Evaluation};
use nvmx_celldb::{tentpole, CellFlavor, TechnologyClass};
use nvmx_nvsim::{characterize, ArrayConfig, OptimizationTarget};
use nvmx_units::Capacity;
use nvmx_workloads::{TrafficGrid, TrafficPattern};
use std::sync::Arc;

fn sample() -> Evaluation {
    let cell = tentpole::tentpole_cell(TechnologyClass::Stt, CellFlavor::Optimistic).unwrap();
    let array = characterize(
        &cell,
        &ArrayConfig::new(Capacity::from_mebibytes(2)),
        OptimizationTarget::ReadEdp,
    )
    .unwrap();
    evaluate(&array, &TrafficPattern::new("roundtrip", 2.0e9, 20.0e6, 64))
}

#[test]
fn evaluation_round_trips_through_serde_json() {
    let eval = sample();
    let json = serde_json::to_string(&eval).expect("serializes");
    let back: Evaluation = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back, eval);
    // The array record is inlined, not hidden behind pointer identity.
    assert!(json.contains("\"cell_name\""));
    assert!(json.contains("roundtrip"));
}

#[test]
fn shared_and_owned_evaluations_serialize_identically() {
    let eval = sample();
    let grid = TrafficGrid::from_shared(vec![Arc::clone(&eval.traffic)]);
    let shared = EvalKernel::new(&eval.array).apply_batch(&grid).remove(0);
    assert_eq!(shared, eval);
    assert_eq!(
        serde_json::to_string(&shared).unwrap(),
        serde_json::to_string(&eval).unwrap()
    );
    // Two evaluations of one shared array really share it.
    assert!(Arc::ptr_eq(&shared.array, &eval.array));
}

#[test]
fn deserialized_lifetime_field_survives() {
    let eval = sample();
    let json = serde_json::to_string(&eval).unwrap();
    let back: Evaluation = serde_json::from_str(&json).unwrap();
    assert_eq!(back.lifetime, eval.lifetime);
    assert!(
        back.lifetime.is_some(),
        "STT under writes has finite lifetime"
    );
}
