//! Reporting for NVMExplorer-RS studies: CSV files (the artifact's output
//! format), aligned ASCII tables (terminal reports), self-contained SVG
//! scatter plots (the static stand-in for the paper's interactive Tableau
//! dashboard — see DESIGN.md for the substitution note), and streaming
//! [`sink`]s (incremental CSV/JSONL/summary writers over the core study
//! event stream, for sweeps too large to hold in memory).
//!
//! # Examples
//!
//! ```
//! use nvmx_viz::csv::Csv;
//! use nvmx_viz::svg::ScatterPlot;
//! use nvmx_viz::table::AsciiTable;
//!
//! let mut table = AsciiTable::new(vec!["tech".into(), "power".into()]);
//! table.row(vec!["STT".into(), "2.8 mW".into()]);
//! assert!(table.render().contains("STT"));
//!
//! let mut csv = Csv::new(["tech", "power_mw"]);
//! csv.row(["STT", "2.8"]);
//! assert!(csv.render().ends_with("STT,2.8\n"));
//!
//! let mut plot = ScatterPlot::log_log("demo", "x", "y");
//! plot.series("s", vec![(1.0, 2.0)]);
//! assert!(plot.render().contains("</svg>"));
//! ```

pub mod csv;
pub mod sink;
pub mod svg;
pub mod table;

pub use csv::Csv;
pub use sink::{CsvSink, JsonlSink, SummaryTableSink};
pub use svg::{ScatterPlot, Series};
pub use table::AsciiTable;
