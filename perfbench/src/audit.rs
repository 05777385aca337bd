//! `audit`: the paper's offline detect-and-resolve pipeline, in-process,
//! with no store and no server.
//!
//! The input is a seeded mix of `standard_suite` cases and layered
//! workflows of ~2k and ~10k tasks with block views, loaded from their
//! text form during set-up. Each workflow runs, in order: a matrix build,
//! Prop 2.1, Def 2.1, the weak and strong correctors, re-validation of both
//! corrected views, and a fixed batch of workflow-level and view-level
//! provenance queries. Def 2.1 dominates at 10k tasks; matrix builds and
//! row scans run from scratch.
//!
//! The audit's edit of a view is its correction, so `mutate` latency is the
//! time of one `correct_view`. After the window a fixed closing phase
//! measures recovery: reloading every workflow with its corrected view from
//! persisted snapshot lines.

use std::error::Error;
use std::time::Instant;

use wolves_core::correct::{correct_view, Strategy};
use wolves_core::validate::{validate, validate_by_definition};
use wolves_graph::ReachMatrix;
use wolves_moml::read_text_format;
use wolves_provenance::query::{
    view_level_provenance, workflow_level_provenance, ViewProvenanceIndex,
};
use wolves_repo::standard_suite;
use wolves_workflow::persist::{spec_from_lines, spec_to_lines, view_from_lines, view_to_lines};
use wolves_workflow::{TaskId, WorkflowSpec, WorkflowView};

use crate::input::Input;
use crate::ladder::Ladder;
use crate::process::release_freed_memory;
use crate::trace::{SpanId, Tracer};
use crate::util::{median, Checker, Report, Rng, Samples, ScratchDir};
use crate::{Config, Window};

const SUBJECTS: usize = 32;
/// Provenance answers per workflow checked against `view_level_provenance`.
const CHECKED_SUBJECTS: usize = 2;
const RECOVER_REPS: usize = 15;
const SETUP_REPS: usize = 3;

struct Loaded {
    spec: WorkflowSpec,
    view: WorkflowView,
    subjects: Vec<TaskId>,
}

/// Latency samples of the pipeline's user-visible steps: per workflow,
/// Prop 2.1 on the audited view (re-validations of corrected views are
/// checked, not timed here) and the whole provenance batch; per corrector,
/// the correction, which is the audit's edit of a view. Single queries on
/// suite cases take a fraction of a microsecond, too close to the clock's
/// resolution to give a steady median.
#[derive(Default)]
struct Latencies {
    validate: Samples,
    provenance: Samples,
    correct: Samples,
}

pub fn run(cfg: &Config, report: &mut Report) -> Result<(), Box<dyn Error>> {
    let scratch = ScratchDir::new("audit")?;
    // Four workflows of each large size keep the slowest ~3% of per-workflow
    // samples inside the large ones, so p99 sits within one size class
    // instead of on the boundary between two.
    let (suite_seeds, sizes) = if cfg.tiny {
        (1, [120, 240])
    } else {
        (32, [2_000, 10_080])
    };
    const PER_SIZE: u64 = 4;
    let generated = Instant::now();
    let mut inputs: Vec<Input> = standard_suite(cfg.seed..cfg.seed + suite_seeds)
        .into_iter()
        .map(|case| Input::new(case.spec, case.view, SUBJECTS, cfg.seed))
        .collect();
    let suite_cases = inputs.len();
    for n in sizes {
        inputs.extend(
            (0..PER_SIZE).map(|k| {
                Input::layered(n, cfg.seed.wrapping_mul(PER_SIZE).wrapping_add(k), SUBJECTS)
            }),
        );
    }
    report.note("generate_s", generated.elapsed().as_secs_f64().to_string());
    report.note("workflows", inputs.len().to_string());
    report.note("suite_cases", suite_cases.to_string());
    report.note(
        "tasks",
        inputs
            .iter()
            .map(|i| i.spec.task_count())
            .sum::<usize>()
            .to_string(),
    );
    report.note_str("fsync_policy", "none (offline, nothing persisted)");

    // set-up: load every workflow from its text form and build its matrix
    let mut setup = Vec::new();
    let mut loaded = Vec::new();
    for _ in 0..cfg.setup_reps(SETUP_REPS) {
        drop(std::mem::take(&mut loaded));
        release_freed_memory();
        let start = Instant::now();
        loaded = inputs
            .iter()
            .map(|input| load(input))
            .collect::<Result<Vec<_>, _>>()?;
        setup.push(start.elapsed().as_secs_f64());
    }

    let mut tracer = cfg.tracer();
    let mut lat = Latencies::default();
    let mut window = Window::start(cfg.seconds, cfg.trace, &mut tracer);
    let (mut passes, mut audited) = (0u64, 0u64);
    while window.running(&mut tracer) {
        passes += 1;
        for (w, item) in loaded.iter().enumerate() {
            let request = passes * 1_000 + w as u64;
            let corrupt = cfg.corrupt && w == 0;
            let start = Instant::now();
            let root = tracer.open("audit.workflow", request);
            let step = Step {
                tracer: &mut tracer,
                parent: root,
                request,
            };
            audit_one(item, step, &mut lat, &mut report.checker, corrupt);
            tracer.close(root);
            window.round(&tracer, start.elapsed());
            audited += 1;
        }
    }
    let elapsed = window.elapsed_s();
    report.note("passes", passes.to_string());

    let largest = inputs.len() - 1;

    if cfg.trace {
        window.report(report);
        let ladder = Ladder {
            input: &inputs[largest],
            script: inputs[largest].edge_script(
                if cfg.tiny { 5 } else { 50 },
                &mut Rng::new(cfg.seed ^ 0xA0D17),
            ),
            reps: 3,
            shards: 2,
        };
        ladder.run(&scratch, report, &mut tracer, &mut Default::default())?;
        cfg.finish_trace(&tracer, report)?;
        return Ok(());
    }

    report.metric("setup_s", median(&setup), "s");
    report.metric("ops_per_s", audited as f64 / elapsed, "1/s");
    report.latency("validate", &lat.validate);
    report.latency("provenance", &lat.provenance);
    report.latency("mutate", &lat.correct);

    // recovery: every workflow with its weakly corrected view, persisted as
    // snapshot lines and reloaded
    let weak = Strategy::Weak.corrector();
    let mut files = Vec::new();
    for (w, item) in loaded.iter().enumerate() {
        let (corrected, _) = correct_view(&item.spec, &item.view, &*weak)?;
        let path = scratch.sub(&format!("snapshot-{w}.txt"));
        let mut lines = spec_to_lines(&item.spec);
        lines.push(String::new());
        lines.extend(view_to_lines(&corrected));
        std::fs::write(&path, lines.join("\n"))?;
        files.push(path);
    }
    let mut recover = Vec::new();
    for _ in 0..RECOVER_REPS {
        let start = Instant::now();
        let mut reloaded = Vec::with_capacity(files.len());
        for path in &files {
            let text = std::fs::read_to_string(path)?;
            let lines: Vec<String> = text.lines().map(str::to_owned).collect();
            let split = lines
                .iter()
                .position(String::is_empty)
                .ok_or("no view section")?;
            let spec = spec_from_lines(&lines[..split])?;
            let view = view_from_lines(&lines[split + 1..])?;
            let _ = spec.reachability();
            reloaded.push((spec, view));
        }
        recover.push(start.elapsed().as_secs_f64());
        for ((spec, view), item) in reloaded.iter().zip(&loaded) {
            report.checker.check::<String>(
                "reloaded workflow is the same and its corrected view is sound",
                Ok(spec.task_count() == item.spec.task_count()
                    && spec.dependency_count() == item.spec.dependency_count()
                    && validate(spec, view).is_sound()),
            );
        }
    }
    report.metric("recover_s", median(&recover), "s");
    Ok(())
}

fn load(input: &Input) -> Result<Loaded, Box<dyn Error>> {
    let imported = read_text_format(&input.text)?;
    let view = imported.view.ok_or("text form lost the view")?;
    let spec = imported.spec;
    let _ = spec.reachability();
    let subjects = input
        .subjects
        .iter()
        .map(|s| spec.task_by_name(&s.name).ok_or("subject lost on load"))
        .collect::<Result<_, _>>()?;
    Ok(Loaded {
        spec,
        view,
        subjects,
    })
}

/// Where a pipeline step's span goes.
struct Step<'a> {
    tracer: &'a mut Tracer,
    parent: Option<SpanId>,
    request: u64,
}

impl Step<'_> {
    fn run<T>(
        &mut self,
        name: &'static str,
        samples: Option<&mut Samples>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if let Some(samples) = samples {
            samples.push(end - start);
        }
        self.tracer
            .record(name, start, end, self.parent, self.request);
        out
    }
}

fn audit_one(
    item: &Loaded,
    mut step: Step<'_>,
    lat: &mut Latencies,
    checker: &mut Checker,
    corrupt: bool,
) {
    let (spec, view) = (&item.spec, &item.view);
    let matrix = step.run("graph.matrix_build", None, || {
        ReachMatrix::build(spec.graph())
    });
    checker.check(
        "matrix build matches the loaded matrix",
        matrix.map(|m| m.comp_count() == spec.reachability().comp_count()),
    );
    let prop21 = step.run("core.prop21", Some(&mut lat.validate), || {
        validate(spec, view)
    });
    let def21 = step.run("core.def21", None, || validate_by_definition(spec, view));
    checker.check::<String>(
        "Prop 2.1 sound implies Def 2.1 sound",
        Ok(!prop21.is_sound() || def21.is_sound()),
    );
    for (name, strategy) in [
        ("core.correct_weak", Strategy::Weak),
        ("core.correct_strong", Strategy::Strong),
    ] {
        let corrector = strategy.corrector();
        let corrected = step.run(name, Some(&mut lat.correct), || {
            correct_view(spec, view, &*corrector)
        });
        match corrected {
            Ok((corrected, _)) => {
                let verdict = step.run("core.revalidate", None, || validate(spec, &corrected));
                checker.check::<String>("corrected view validates sound", Ok(verdict.is_sound()));
            }
            Err(e) => checker.check::<_>("correct_view", Err(e)),
        }
    }
    let start = Instant::now();
    for &subject in &item.subjects {
        step.run("provenance.workflow_query", None, || {
            workflow_level_provenance(spec, subject)
        });
    }
    let index = step.run("provenance.index_build", None, || {
        ViewProvenanceIndex::new(spec, view)
    });
    let answers: Vec<_> = item
        .subjects
        .iter()
        .map(|&subject| step.run("provenance.query", None, || index.provenance(view, subject)))
        .collect();
    lat.provenance.push(start.elapsed());
    for (i, (&subject, answer)) in item
        .subjects
        .iter()
        .zip(&answers)
        .enumerate()
        .take(CHECKED_SUBJECTS)
    {
        let mut expected = view_level_provenance(spec, view, subject).tasks;
        if corrupt && i == 0 {
            // a task id no workflow has
            expected.insert(TaskId::from_index(spec.graph().node_bound() + 1));
        }
        checker.check::<String>(
            "view-level provenance matches view_level_provenance",
            Ok(answer.tasks == expected),
        );
    }
}
