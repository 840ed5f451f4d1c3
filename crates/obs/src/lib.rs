//! # confllvm-obs
//!
//! Leak-safe structured observability for the ConfLLVM reproduction: one
//! recorder every layer (compiler pass managers, ConfVerify, the VM, the
//! serving runtime) records into, with Chrome-trace and metrics-JSON
//! exporters on top.  See `crates/obs/README.md` for the full model and
//! the Perfetto how-to.
//!
//! The three design rules, in order of importance:
//!
//! 1. **No leaks by construction.**  Attribute values are typed
//!    ([`AttrValue`]) and only numbers, booleans and `'static` string
//!    literals convert — runtime bytes (private `World` state) cannot reach
//!    a trace at compile time, and debug builds additionally scan every
//!    recorded event against registered private sentinels
//!    ([`Recorder::add_private_sentinel`]).
//! 2. **Disabled means free.**  A disabled recorder costs one relaxed
//!    atomic load per span and records nothing; instrumentation never
//!    touches simulated state either way, so traced and untraced runs have
//!    byte-identical simulated observables and cycle counts.
//! 3. **Simulated cycles ≠ host time.**  Spans carry both, separately
//!    labelled, mirroring the workspace-wide rule that assertions go on
//!    deterministic simulated numbers while host time is only reported.

mod attr;
mod export;
mod hist;
mod json;
pub mod prof;
mod recorder;
pub mod series;

pub use attr::{write_json_string, AttrValue};
pub use export::{
    chrome_trace_json, metrics_json, summary_table, validate_chrome_trace, TraceCheck,
};
pub use hist::{exact_percentile, exact_percentile_milli, Histogram};
pub use json::{parse_json, Json};
pub use prof::{profiler, Profile, ProfileDiff, Profiler, SampleKey};
pub use recorder::{recorder, Event, EventKind, Recorder, Span, ThreadEvents, TraceSnapshot};
pub use series::{SloMonitor, SloReport, SloRules, WindowSeries, WindowStat};

/// The span categories of the four instrumented layers, in the order the
/// acceptance gate checks them: compiler (IR + machine pass managers),
/// verifier (ConfVerify driver + cache), vm (execution, snapshot/restore),
/// server (request path + registry lifecycle).
pub const LAYERS: [&str; 4] = ["compiler", "verifier", "vm", "server"];
