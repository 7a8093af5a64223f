//! Per-experiment JSON artifacts.
//!
//! The `experiments` binary brackets every experiment with
//! [`begin`]/[`finish`]; the experiment body contributes fields with
//! [`put`], [`add_virtual_secs`] and [`put_metrics`]. `finish` writes
//! `BENCH_<exp>.json` into the working directory with the collected
//! fields plus wall-clock and virtual run time. An experiment's results
//! table goes in once, through [`table`]; [`render`] reads it back out of
//! an artifact, for the runner and for `experiments report`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ocs_telemetry::{HistoSnapshot, MetricsSnapshot};

use crate::json::Json;
use crate::Table;

static CURRENT: Mutex<Option<Report>> = Mutex::new(None);

struct Report {
    name: String,
    virtual_secs: f64,
    fields: BTreeMap<String, Json>,
}

/// Opens the collection scope for experiment `name`, discarding any
/// scope left open by a previous experiment.
pub fn begin(name: &str) {
    *CURRENT.lock().unwrap() = Some(Report {
        name: name.to_string(),
        virtual_secs: 0.0,
        fields: BTreeMap::new(),
    });
}

static CORES_OVERRIDE: Mutex<Option<usize>> = Mutex::new(None);

/// Records an optional `--cores` override of the detected host
/// parallelism that every artifact records (for honest artifacts from a
/// cgroup-limited container the detection can't see through).
pub fn set_cores(cores: Option<usize>) {
    *CORES_OVERRIDE.lock().unwrap() = cores;
}

/// The core count artifacts record: the `--cores` override when given,
/// detected parallelism otherwise.
fn cores_used() -> usize {
    CORES_OVERRIDE.lock().unwrap().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Records one field of the current experiment's artifact (last write
/// per key wins). No-op outside a [`begin`]/[`finish`] scope, so
/// experiments stay callable from tests without producing files.
pub fn put(key: &str, value: Json) {
    if let Some(r) = CURRENT.lock().unwrap().as_mut() {
        r.fields.insert(key.to_string(), value);
    }
}

/// Records the experiment's results table as its artifact's `table`:
/// `{"columns": [...], "rows": [[...]]}`, the columns in order.
pub fn table(t: Table) {
    let cells = |cells: Vec<String>| Json::Arr(cells.into_iter().map(Json::Str).collect());
    let rows = Json::Arr(t.rows.into_iter().map(cells).collect());
    put(
        "table",
        Json::obj([("columns".into(), cells(t.headers)), ("rows".into(), rows)]),
    );
}

/// The [`Table::render`] of the table the artifact at `path` keeps.
pub fn render(path: &Path) -> Result<String, String> {
    let cells = |j: &Json| match j {
        Json::Arr(cells) => cells.iter().map(|c| c.as_str().map(String::from)).collect(),
        _ => None,
    };
    let artifact = crate::check::read_json(path)?;
    let table = artifact.get("table").and_then(|t| match t.get("rows")? {
        Json::Arr(rows) => Some(Table {
            headers: cells(t.get("columns")?)?,
            rows: rows.iter().map(cells).collect::<Option<_>>()?,
        }),
        _ => None,
    });
    table
        .map(|t| t.render())
        .ok_or_else(|| format!("{}: no table", path.display()))
}

/// Accumulates virtual (simulated) run time; experiments that drive
/// several `Sim`s call this once per sim with its final clock.
pub fn add_virtual_secs(secs: f64) {
    if let Some(r) = CURRENT.lock().unwrap().as_mut() {
        r.virtual_secs += secs;
    }
}

/// Records a metrics snapshot under `key` as nested counter/gauge/histo
/// objects.
pub fn put_metrics(key: &str, m: &MetricsSnapshot) {
    put(key, metrics_json(m));
}

/// Renders [`crate::Stats`] as a JSON object.
pub fn stats_json(s: &crate::Stats) -> Json {
    Json::obj([
        ("n".to_string(), Json::U64(s.n as u64)),
        ("min".to_string(), Json::F64(s.min)),
        ("mean".to_string(), Json::F64(s.mean)),
        ("p50".to_string(), Json::F64(s.p50)),
        ("max".to_string(), Json::F64(s.max)),
    ])
}

/// Renders a [`MetricsSnapshot`] as a JSON object.
pub fn metrics_json(m: &MetricsSnapshot) -> Json {
    Json::obj([
        (
            "counters".to_string(),
            Json::Obj(
                m.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::U64(*v)))
                    .collect(),
            ),
        ),
        (
            "gauges".to_string(),
            Json::Obj(
                m.gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::I64(*v)))
                    .collect(),
            ),
        ),
        (
            "histograms".to_string(),
            Json::Obj(
                m.histos
                    .iter()
                    .map(|(k, h)| (k.clone(), histo_json(h)))
                    .collect(),
            ),
        ),
    ])
}

fn histo_json(h: &HistoSnapshot) -> Json {
    Json::obj([
        (
            "bounds_us".to_string(),
            Json::Arr(h.bounds.iter().map(|b| Json::U64(*b)).collect()),
        ),
        (
            "buckets".to_string(),
            Json::Arr(h.buckets.iter().map(|b| Json::U64(*b)).collect()),
        ),
        ("count".to_string(), Json::U64(h.count)),
        ("sum_us".to_string(), Json::U64(h.sum)),
    ])
}

/// Closes the scope and writes `BENCH_<exp>.json`. Returns the path on
/// success; `None` when no scope is open or the write fails (the
/// experiment's stdout results are the primary record either way).
pub fn finish(wall_secs: f64) -> Option<PathBuf> {
    let report = CURRENT.lock().unwrap().take()?;
    let mut fields = report.fields;
    fields.insert("experiment".to_string(), Json::from(report.name.as_str()));
    fields.insert("wall_seconds".to_string(), Json::F64(wall_secs));
    fields.insert(
        "virtual_seconds".to_string(),
        Json::F64(report.virtual_secs),
    );
    fields.insert("cores_used".to_string(), Json::U64(cores_used() as u64));
    let path = PathBuf::from(format!("BENCH_{}.json", report.name));
    match std::fs::write(&path, Json::Obj(fields).render()) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: could not write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_outside_scope_is_a_noop() {
        *CURRENT.lock().unwrap() = None;
        put("x", Json::from(1u64));
        add_virtual_secs(5.0);
        assert!(finish(0.1).is_none());
    }
}
