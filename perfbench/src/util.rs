//! Shared helpers: a seeded generator, latency samples, answer checks, the
//! result accumulator, the host fingerprint and the scratch directory.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator, so a `--seed` fixes every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nanosecond durations of one operation kind.
#[derive(Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, elapsed: Duration) {
        self.0
            .push(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Times `f` once and records it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.push(start.elapsed());
        out
    }

    /// Nearest-rank quantile in microseconds (`0 < q <= 1`).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64 / 1e3
    }

    pub fn p50_us(&self) -> f64 {
        self.quantile_us(0.5)
    }

    pub fn p99_us(&self) -> f64 {
        self.quantile_us(0.99)
    }

    pub fn mean_us(&self) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        self.0.iter().sum::<u64>() as f64 / self.0.len() as f64 / 1e3
    }
}

/// Median of plain values (set-up and recovery repetitions).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Counts attempted operations and wrong or failed answers. The first few
/// failures are kept verbatim for the record line.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Checker {
    /// One operation: `Ok(true)` is a right answer, `Ok(false)` a wrong one,
    /// `Err` a failed call.
    pub fn check<E: std::fmt::Display>(&mut self, what: &str, outcome: Result<bool, E>) {
        self.attempted += 1;
        let problem = match outcome {
            Ok(true) => return,
            Ok(false) => format!("{what}: wrong answer"),
            Err(e) => format!("{what}: {e}"),
        };
        self.failed += 1;
        if self.first_failures.len() < 8 {
            self.first_failures.push(problem);
        }
    }
}

/// What one run measured: metrics by name, sample counts and extra record
/// fields (already rendered as JSON values).
#[derive(Default)]
pub struct Report {
    pub checker: Checker,
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    pub samples: BTreeMap<String, u64>,
    pub record: BTreeMap<String, String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// A latency pair `<op>_p50_us` / `<op>_p99_us` plus its sample count.
    pub fn latency(&mut self, op: &str, samples: &Samples) {
        self.metric(format!("{op}_p50_us"), samples.p50_us(), "us");
        self.metric(format!("{op}_p99_us"), samples.p99_us(), "us");
        self.samples.insert(op.to_owned(), samples.len() as u64);
    }

    pub fn note(&mut self, key: &str, json_value: String) {
        self.record.insert(key.to_owned(), json_value);
    }

    pub fn note_str(&mut self, key: &str, text: &str) {
        self.note(key, json_string(text));
    }
}

pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (`null` for NaN or infinity).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

pub fn json_object<'a>(entries: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host fingerprint: CPU model, usable cores (counted before the process
/// pinned itself) and the compiler that built this binary. Absolute numbers
/// drift between hosts; these say which host.
pub fn host_fingerprint(nproc: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    json_object([
        ("cpu_model", json_string(&cpu)),
        ("nproc", nproc.to_string()),
        ("rustc", json_string(env!("PERFBENCH_RUSTC"))),
    ])
}

/// The git revision when the checkout is a repository, and in any case a
/// digest of the workspace sources the binary was built from.
pub fn source_identity() -> (String, String) {
    let root = source_root();
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    collect_sources(&root.join("vendor"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for path in &files {
        let Ok(bytes) = std::fs::read(path) else {
            continue;
        };
        let rel = path.strip_prefix(&root).unwrap_or(path);
        for byte in rel.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01B3);
        }
    }
    (rev, format!("fnv64:{hash:016x}/{}files", files.len()))
}

/// The workspace root: the parent of this package.
fn source_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// A scratch directory under `.bench_out/` in the working directory,
/// removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(workload: &str) -> std::io::Result<Self> {
        let path = PathBuf::from(".bench_out").join(format!("{workload}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    /// A fresh, not yet existing sub-path.
    pub fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Copies a data directory tree (files and sub-directories).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
