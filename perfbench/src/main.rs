//! The WOLVES benchmark: one workload per run, inputs made from `--seed`,
//! every answer checked, and one JSON result as the last line of stdout.
//!
//! ```text
//! perfbench --workload <edit_large|read_hot|audit> --seed <n> --seconds <s> --trace <0|1>
//!           [--tiny] [--corrupt-expected]
//! ```
//!
//! * `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//!   loop with a span around every layer call (after an untraced quarter of
//!   the window that gives the tracing overhead), then the per-layer
//!   ladder of [`ladder`], and prints the per-layer metrics.
//! * `--tiny` shrinks every input (the smoke test); `--corrupt-expected`
//!   plants one wrong expected answer, which must show up as failures.
//!
//! The process first pins itself to one CPU (see [`process`]).
//!
//! The line before the result is a record of the run: host fingerprint,
//! git revision and source digest, seed, fsync policy, sample counts, span
//! summary and the first failures.

mod audit;
mod edit_large;
mod input;
mod ladder;
mod process;
mod read_hot;
mod trace;
mod util;
mod wire;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::{render_summary, Tracer};
use util::{json_number, json_object, json_string, Report, Samples};

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub corrupt: bool,
}

impl Config {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut cfg = Config {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            tiny: false,
            corrupt: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => cfg.workload = value()?.clone(),
                "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    cfg.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--tiny" => cfg.tiny = true,
                "--corrupt-expected" => cfg.corrupt = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
            return Err("--seconds must be positive".to_owned());
        }
        Ok(cfg)
    }

    /// Set-ups per run: `untraced` of them, whose median is `setup_s`; a
    /// traced run needs one.
    pub fn setup_reps(&self, untraced: usize) -> usize {
        if self.trace {
            1
        } else {
            untraced
        }
    }

    pub fn tracer(&self) -> Tracer {
        Tracer::new(self.trace)
    }

    /// Span summary into the record, spans to `.bench_out/traces/`.
    pub fn finish_trace(&self, tracer: &Tracer, report: &mut Report) -> std::io::Result<()> {
        report.note("spans", render_summary(&tracer.summary()));
        // one file per workload, overwritten by each traced run
        let path = format!(".bench_out/traces/{}.jsonl", self.workload);
        tracer.write_jsonl(std::path::Path::new(&path))?;
        report.note_str("trace_file", &path);
        Ok(())
    }
}

/// The measured window of a workload loop. In a traced run the first
/// quarter runs untraced; the round times of the two parts give the
/// tracing overhead.
pub struct Window {
    start: Instant,
    seconds: f64,
    trace: bool,
    rounds: [Samples; 2],
    ended: f64,
}

impl Window {
    pub fn start(seconds: f64, trace: bool, tracer: &mut Tracer) -> Self {
        tracer.set_enabled(false);
        Window {
            start: Instant::now(),
            seconds,
            trace,
            rounds: Default::default(),
            ended: 0.0,
        }
    }

    /// `true` while the window is open.
    pub fn running(&mut self, tracer: &mut Tracer) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        if self.trace && !tracer.enabled() && elapsed >= self.seconds / 4.0 {
            tracer.set_enabled(true);
        }
        if elapsed < self.seconds {
            return true;
        }
        tracer.set_enabled(self.trace);
        self.ended = elapsed;
        false
    }

    pub fn round(&mut self, tracer: &Tracer, elapsed: Duration) {
        self.rounds[usize::from(tracer.enabled())].push(elapsed);
    }

    pub fn elapsed_s(&self) -> f64 {
        self.ended
    }

    pub fn report(&self, report: &mut Report) {
        let [untraced, traced] = &self.rounds;
        report.metric(
            "trace.overhead_share",
            traced.p50_us() / untraced.p50_us() - 1.0,
            "ratio",
        );
        report
            .samples
            .insert("round.untraced".to_owned(), untraced.len() as u64);
        report
            .samples
            .insert("round.traced".to_owned(), traced.len() as u64);
    }
}

fn main() -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let pinned = process::pin_to_one_cpu();
    let one_arena = process::one_malloc_arena();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    report.note(
        "pinned_cpu",
        pinned.map_or("null".to_owned(), |cpu| cpu.to_string()),
    );
    report.note("one_malloc_arena", one_arena.to_string());
    let outcome = match cfg.workload.as_str() {
        "edit_large" => edit_large::run(&cfg, &mut report),
        "read_hot" => read_hot::run(&cfg, &mut report),
        "audit" => audit::run(&cfg, &mut report),
        other => {
            eprintln!("perfbench: unknown workload '{other}' (edit_large, read_hot, audit)");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", cfg.workload);
        return ExitCode::from(1);
    }
    if !cfg.trace {
        report.metric("peak_rss_mb", util::peak_rss_mb(), "MiB");
    }
    report.note("host", util::host_fingerprint(nproc));
    print_result(&cfg, &report);
    ExitCode::SUCCESS
}

fn print_result(cfg: &Config, report: &Report) {
    let checker = &report.checker;
    let (rev, digest) = util::source_identity();
    let mut record = vec![
        ("workload", json_string(&cfg.workload)),
        ("seed", cfg.seed.to_string()),
        ("seconds", json_number(cfg.seconds)),
        ("trace", cfg.trace.to_string()),
        ("tiny", cfg.tiny.to_string()),
        ("git_rev", json_string(&rev)),
        ("source_digest", json_string(&digest)),
        (
            "failed_ratio",
            json_number(checker.failed as f64 / checker.attempted.max(1) as f64),
        ),
        (
            "samples",
            json_object(
                report
                    .samples
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.to_string())),
            ),
        ),
        (
            "first_failures",
            format!(
                "[{}]",
                checker
                    .first_failures
                    .iter()
                    .map(|f| json_string(f))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    record.extend(report.record.iter().map(|(k, v)| (k.as_str(), v.clone())));
    println!("{}", json_object([("record", json_object(record))]));
    let metrics = json_object(report.metrics.iter().map(|(name, (value, unit))| {
        (
            name.as_str(),
            json_object([("value", json_number(*value)), ("unit", json_string(unit))]),
        )
    }));
    println!(
        "{}",
        json_object([
            ("correct", (checker.failed == 0).to_string()),
            ("attempted", checker.attempted.max(1).to_string()),
            ("failed", checker.failed.to_string()),
            ("metrics", metrics),
        ])
    );
}
