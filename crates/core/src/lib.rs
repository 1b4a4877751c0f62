//! NVMExplorer-RS — a cross-stack design-space-exploration framework for
//! embedded non-volatile memories.
//!
//! This crate is the Rust reproduction of *NVMExplorer: A Framework for
//! Cross-Stack Comparisons of Embedded Non-Volatile Memories* (HPCA 2022).
//! It ties together the cell survey + tentpole methodology
//! ([`nvmx_celldb`]), the NVSim-class array simulator ([`nvmx_nvsim`]), the
//! fault-injection engine ([`nvmx_fault`]), and the workload substrates
//! ([`nvmx_workloads`]) behind one configuration-driven flow:
//!
//! 1. [`config::StudyConfig`] — JSON-loadable cross-stack study spec (with
//!    a per-study [`config::OutputSpec`] naming where results stream),
//! 2. [`stream::StudyExecutor`] — the engine's one front door: expand +
//!    characterize + evaluate with a chosen thread count, shared cache,
//!    persistent store, or incumbent seeds, pushing a deterministic
//!    [`stream::StudyEvent`] stream to a [`stream::ResultSink`] while it
//!    runs ([`sweep::run_study`] is the one-line batch default),
//! 3. [`scheduler::StudyScheduler::run_queue`] — shard a queue of studies
//!    across concurrent lanes over one warm subarray cache, on the same
//!    slot-ordered lane engine ([`scheduler::run_on_lanes_streaming`])
//!    every fan-out in the crate uses,
//! 4. [`wire`] — the versioned JSONL wire protocol carrying the event
//!    stream across process/host boundaries ([`wire::WireSink`] stream
//!    writers, [`wire::SlotMerger`] slot-order merging, [`wire::replay`]
//!    deterministic capture replay) — what the `nvmx-worker` /
//!    `nvmx-coordinator` binaries speak,
//! 5. [`explore::ResultSet`] — filter/rank the results like the paper's
//!    interactive dashboard,
//! 6. [`intermittent`], [`write_buffer`], [`accuracy`] — the specialized
//!    models behind Figs. 6/7, 14, and 13.
//!
//! # Examples
//!
//! End-to-end: compare eNVMs as the 2 MB weight buffer of a DNN
//! accelerator at 60 FPS and pick the lowest-power feasible option.
//!
//! ```
//! use nvmexplorer_core::config::{StudyConfig, TrafficSpec};
//! use nvmexplorer_core::explore::{Objective, ResultSet};
//! use nvmexplorer_core::sweep::run_study;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut study = StudyConfig {
//!     name: "quickstart".into(),
//!     cells: Default::default(),
//!     array: Default::default(),
//!     traffic: TrafficSpec::DnnContinuous {
//!         model: "resnet26".into(),
//!         tasks: 1,
//!         store_activations: false,
//!         fps: 60.0,
//!     },
//!     constraints: Default::default(),
//!     output: Default::default(),
//!     store: Default::default(),
//! };
//! study.cells.technologies = Some(vec![nvmx_celldb::TechnologyClass::Stt]);
//! let result = run_study(&study)?;
//! let set = ResultSet::new(result.evaluations).feasible();
//! let best = set.best(Objective::TotalPower).expect("some design survives");
//! assert!(best.is_feasible());
//! # Ok(())
//! # }
//! ```

// Every public item must explain itself: this crate *is* the reproduced
// methodology, and the rustdoc is the map from code to paper sections.
// CI builds the docs with `-D warnings`, so broken intra-doc links fail too.
#![deny(missing_docs)]

pub mod accuracy;
pub mod config;
pub mod eval;
pub mod explore;
pub mod fault_study;
pub mod fsutil;
pub mod intermittent;
pub mod reshard;
pub mod scheduler;
pub mod service;
pub mod stream;
pub mod sweep;
pub mod traffic_memo;
pub mod transport;
pub mod wire;
pub mod write_buffer;

pub use config::{CampaignConfig, FaultSpec, FaultStudyConfig, OutputSpec, StoreSpec, StudyConfig};
pub use eval::{evaluate, Evaluation};
pub use explore::{Objective, ResultSet};
pub use fault_study::{
    injection_seed, FaultModelReport, FaultOutcome, FaultStudyResult, FaultStudyStats, FaultTrial,
};
/// The array record every [`Evaluation`] shares, re-exported so result
/// consumers can name it without depending on `nvmx_nvsim`.
pub use nvmx_nvsim::ArrayCharacterization;
pub use scheduler::{SchedulerReport, StudyOutcome, StudyScheduler};
pub use service::{
    Admission, AdmitError, CampaignService, EventCursor, ServiceConfig, ServiceStatus,
    SessionPhase, SessionSnapshot,
};
pub use stream::{
    MultiSink, NullSink, ResultSink, StudyEvent, StudyExecutor, StudyResultBuilder, StudyStats,
};
pub use sweep::{run_study, StudyResult};
pub use wire::{
    LeaseFrame, OwnedStudyEvent, RequestFrame, ResponseFrame, SessionBrief, SlotMerger,
    StreamReplayer, WireError, WireFrame, WireSink, WorkerFrame, WIRE_MIN_VERSION,
    WIRE_SERVICE_MIN_VERSION, WIRE_VERSION, WIRE_WORKER_MIN_VERSION,
};

#[cfg(test)]
mod tests {
    use super::*;
    use config::TrafficSpec;

    #[test]
    fn crate_level_flow_works() {
        let mut study = StudyConfig {
            name: "smoke".into(),
            cells: Default::default(),
            array: Default::default(),
            traffic: TrafficSpec::Explicit {
                patterns: vec![nvmx_workloads::TrafficPattern::new("t", 1.0e9, 1.0e6, 64)],
            },
            constraints: Default::default(),
            output: Default::default(),
            store: Default::default(),
        };
        study.cells.technologies = Some(vec![nvmx_celldb::TechnologyClass::Pcm]);
        study.cells.sram_baseline = false;
        study.cells.reference_rram = false;
        let result = run_study(&study).unwrap();
        assert_eq!(result.arrays.len(), 2);
        let set = ResultSet::new(result.evaluations);
        assert!(set.best(Objective::TotalPower).is_some());
    }
}
