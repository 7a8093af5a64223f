//! Shared helpers for the experiment harness: table rendering, simple
//! statistics, and cluster setup shortcuts.
//!
//! The experiments themselves live in [`exps`] and are driven by the
//! `experiments` binary (`cargo run -p bench --bin experiments -- all`).

pub mod check;
pub mod exps;
pub mod json;
pub mod loc;
pub mod report;

/// Heap-allocation counting for the kernel microbenchmark (E18).
///
/// The `experiments` binary registers [`alloc_track::CountingAlloc`] as
/// its `#[global_allocator]`; E18 then reads allocation deltas around a
/// run to report allocations-per-event. In builds that don't register
/// it (unit tests, other binaries) the counter simply stays at zero.
pub mod alloc_track {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// A [`System`] wrapper counting every `alloc`/`realloc`/
    /// `alloc_zeroed` call (frees are not counted; the metric is
    /// allocation pressure, not live bytes).
    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc_zeroed(layout) }
        }
    }

    /// Allocation calls so far (monotonic; take deltas around a region).
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// Simple summary statistics over a sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Number of samples.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// Mean.
    pub mean: f64,
    /// Maximum.
    pub max: f64,
    /// 50th percentile.
    pub p50: f64,
}

impl Stats {
    /// Computes stats over `xs` (empty input yields zeros).
    pub fn of(xs: &[f64]) -> Stats {
        if xs.is_empty() {
            return Stats::default();
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Stats {
            n: xs.len(),
            min: sorted[0],
            mean: xs.iter().sum::<f64>() / xs.len() as f64,
            max: sorted[xs.len() - 1],
            p50: sorted[xs.len() / 2],
        }
    }
}

/// `p`-th percentile of a sample by nearest-rank (p in [0, 1]).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((sorted.len() as f64 * p).ceil() as usize).max(1) - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// An experiment's results table. The experiment hands it to
/// [`report::table`], the artifact keeps it, and [`Table::render`] is the
/// one place it is formatted: for the runner's stdout, for `experiments
/// report`, and for EXPERIMENTS.md.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// The table as markdown, one line per row, ending in a newline.
    pub fn render(&self) -> String {
        let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
        let mut out = line(&self.headers) + "|" + &"---|".repeat(self.headers.len()) + "\n";
        for row in &self.rows {
            out += &line(row);
        }
        out
    }
}

/// Formats a float with the given precision.
pub fn f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        let s = Stats::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-9);
        assert_eq!(s.p50, 2.0);
        assert_eq!(Stats::of(&[]).n, 0);
    }

    #[test]
    fn a_table_renders_as_markdown_in_column_order() {
        let mut t = Table::new(&["b", "a"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["3".into(), "4".into()]);
        assert_eq!(t.render(), "| b | a |\n|---|---|\n| 1 | 2 |\n| 3 | 4 |\n");
    }
}
