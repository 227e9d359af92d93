//! Plain-text table rendering and JSON result persistence.
//!
//! Every writer here follows one directory rule: paths resolve from the
//! root of the workspace this crate was compiled in, never from the
//! current directory. Experiment outputs go to `target/experiments/`
//! under that root; a full run's `BENCH_<name>.json` goes to the root
//! itself.

use sal_obs::{Json, ToJson};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A simple aligned-text table (the bench binaries print the same rows
/// the paper's Table 1 reports, with measured numbers).
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column names.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:<w$}  ", c, w = widths[i]);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Summary statistics over a set of per-passage RMR counts: the
/// distributional view the sweep CLI prints alongside the max.
#[derive(Debug, Clone)]
pub struct RmrSummary {
    /// Number of samples.
    pub count: usize,
    /// Minimum.
    pub min: u64,
    /// Median (lower of the middle pair for even counts).
    pub p50: u64,
    /// 95th percentile (nearest-rank).
    pub p95: u64,
    /// Maximum.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl RmrSummary {
    /// Summarize a set of counts; `None` if empty.
    pub fn of(samples: &[u64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = |q: f64| -> u64 {
            let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            sorted[idx]
        };
        Some(RmrSummary {
            count: sorted.len(),
            min: sorted[0],
            p50: rank(0.50),
            p95: rank(0.95),
            max: *sorted.last().unwrap(),
            mean: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
        })
    }

    /// One-line rendering, e.g. `n=24 min=6 p50=8 p95=11 max=12 mean=8.3`.
    pub fn render(&self) -> String {
        format!(
            "n={} min={} p50={} p95={} max={} mean={:.1}",
            self.count, self.min, self.p50, self.p95, self.max, self.mean
        )
    }
}

impl ToJson for RmrSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::Int(self.count as i64)),
            ("min", self.min.to_json()),
            ("p50", self.p50.to_json()),
            ("p95", self.p95.to_json()),
            ("max", self.max.to_json()),
            ("mean", self.mean.to_json()),
        ])
    }
}

/// The directory every writer in this module writes to, and the one
/// rule they share: paths resolve from the root of the workspace this
/// crate was compiled in (its manifest directory, fixed at build
/// time), never from the current directory. `root_level` selects the
/// workspace root itself, where the committed `BENCH_*.json` artifacts
/// live; otherwise the directory is `target/experiments/` under it.
/// The directory is created if missing.
fn out_dir(root_level: bool) -> std::io::Result<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("the crate sits two levels below the workspace root");
    let dir = if root_level {
        root.to_path_buf()
    } else {
        root.join("target/experiments")
    };
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Write `text` to `file` in [`out_dir`], returning the path written.
fn write_out(root_level: bool, file: &str, text: &str) -> std::io::Result<PathBuf> {
    let path = out_dir(root_level)?.join(file);
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Persist any [`ToJson`] experiment result as JSON at
/// `target/experiments/<name>.json` under the workspace root (see the
/// module docs). Best-effort: failures are printed, not fatal — the
/// text output is the primary artifact.
pub fn save_json<T: ToJson + ?Sized>(name: &str, value: &T) {
    match write_out(false, &format!("{name}.json"), &value.to_json().render()) {
        Ok(path) => println!("(saved {})", path.display()),
        Err(e) => eprintln!("(could not write {name}.json: {e})"),
    }
}

/// Write a bench binary's acceptance artifact `BENCH_<name>.json`,
/// exiting with status 1 when it cannot be written. A full run writes
/// it at the workspace root, where the committed copy lives; a
/// `--smoke` run writes it under `target/experiments/`, so CI smoke
/// runs never overwrite the committed artifact (see the module docs).
///
/// The artifact is one object: the provenance fields `mode` (`"full"`
/// or `"smoke"`), `available_parallelism` of the host and `git_rev`
/// (the revision the binary was built from, `"unknown"` outside a git
/// checkout), followed by the caller's `fields`.
pub fn save_artifact(name: &str, smoke: bool, fields: Vec<(&str, Json)>) {
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut all = vec![
        ("mode", if smoke { "smoke" } else { "full" }.to_json()),
        ("available_parallelism", (parallelism as u64).to_json()),
        ("git_rev", env!("SAL_BENCH_GIT_REV").to_json()),
    ];
    all.extend(fields);
    let file = format!("BENCH_{name}.json");
    match write_out(!smoke, &file, &Json::obj(all).render()) {
        Ok(path) => println!("(saved {})", path.display()),
        Err(e) => {
            eprintln!("could not write {file}: {e}");
            std::process::exit(1);
        }
    }
}

/// [`save_json`], wrapping the result with the event-log truncation
/// count of the run that produced it: the artifact becomes
/// `{"dropped_events": N, "results": <value>}`, so a bounded log that
/// overflowed is visible in the JSON itself, not only on the console.
/// `N == 0` is written too — downstream tooling can rely on the field.
pub fn save_json_with_log<T: ToJson + ?Sized>(name: &str, value: &T, log: &sal_obs::EventLog) {
    let wrapped = Json::obj(vec![
        ("dropped_events", log.dropped().to_json()),
        ("results", value.to_json()),
    ]);
    save_json(name, &wrapped);
}

/// Export an [`EventLog`](sal_obs::EventLog) as JSONL at
/// `target/experiments/<name>.jsonl` under the workspace root (see the
/// module docs) and verify the file parses back to the same events —
/// the replay-schema contract the exports promise.
pub fn export_events(log: &sal_obs::EventLog, name: &str) {
    match write_out(false, &format!("{name}.jsonl"), &log.to_jsonl()) {
        Ok(path) => {
            let round_trip = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| sal_obs::EventLog::parse_jsonl(&text));
            match round_trip {
                Ok(parsed) if parsed == log.events() => println!(
                    "(saved {} — {} events, {} dropped, replay round-trip ok)",
                    path.display(),
                    parsed.len(),
                    log.dropped()
                ),
                Ok(_) => eprintln!("(export {name}: replay round-trip mismatch)"),
                Err(e) => eprintln!("(export {name}: replay parse failed: {e})"),
            }
        }
        Err(e) => eprintln!("(could not export {name}: {e})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("demo", &["lock", "N", "rmrs"]);
        t.row(vec!["mcs".into(), "8".into(), "5".into()]);
        t.row(vec!["one-shot(B=16)".into(), "128".into(), "7".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("one-shot(B=16)"));
        // Title, header, separator and both rows present.
        assert_eq!(s.trim_start().lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_rows_are_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn summary_percentiles_are_nearest_rank() {
        let s = RmrSummary::of(&[5, 1, 3, 2, 4]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1);
        assert_eq!(s.p50, 3);
        assert_eq!(s.p95, 5);
        assert_eq!(s.max, 5);
        assert!((s.mean - 3.0).abs() < 1e-9);
        assert!(s.render().contains("p50=3"));
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(RmrSummary::of(&[]).is_none());
    }

    #[test]
    fn summary_of_singleton() {
        let s = RmrSummary::of(&[7]).unwrap();
        assert_eq!((s.min, s.p50, s.p95, s.max), (7, 7, 7, 7));
    }
}
