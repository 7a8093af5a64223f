//! Cluster assembly for the ITV system reproduction: builds the paper's
//! Fig. 1 deployment — multiprocessor servers running the full OCS
//! service stack, settops partitioned into neighborhoods (§3.1) — wires
//! the availability machinery together (SSC ↔ RAS ↔ name-service audit),
//! and provides workload generation plus failure injection for the
//! experiments in EXPERIMENTS.md.

mod audit;
mod build;
mod chaos;
mod config;
pub mod real;
mod telemetry;
mod watch;
mod workload;

pub use audit::{AvailabilityAuditor, AvailabilityReport, BlackoutWindow, MttrRow};
pub use build::{standard_apps, Cluster, Intent, ServerHandle, SettopCtl, SettopTotals};
pub use chaos::ChaosOutcome;
pub use real::{RealCluster, RealService, ViewerStats};
pub use config::ClusterConfig;
pub use telemetry::TelemetrySnapshot;
pub use watch::{Lapse, Promise, Watch};
pub use workload::{exp_sample, EveningWorkload, PlannedSession, Zipf};
