//! `edit_large`: an interactive correction session on one ~10k-task
//! workflow served from a durable data dir, one closed-loop connection.
//!
//! A round removes a seeded dependency, validates, puts the dependency
//! back, validates again and asks the provenance of a seeded task. The
//! copy-on-write clone of the spec, the WAL append and verdict invalidation
//! dominate; Def 2.1 and the correctors do no work here.

use std::error::Error;
use std::time::Instant;

use wolves_service::open_data_dir;

use crate::input::Input;
use crate::ladder::Ladder;
use crate::process::release_freed_memory;
use crate::util::{copy_dir, median, Report, Rng, ScratchDir};
use crate::wire::{RoundSamples, Served, Session};
use crate::{Config, Window};

const SHARDS: usize = 2;
const SUBJECTS: usize = 64;
/// Set-ups per untraced run, each measuring its share of the window.
const SESSIONS: usize = 12;
const RECOVER_REPS: usize = 7;

pub fn run(cfg: &Config, report: &mut Report) -> Result<(), Box<dyn Error>> {
    let scratch = ScratchDir::new("edit_large")?;
    let (tasks, recover_pairs, ladder_pairs) = if cfg.tiny {
        (240, 5, 5)
    } else {
        (10_080, 100, 50)
    };
    let generated = Instant::now();
    let mut input = Input::layered(tasks, cfg.seed, SUBJECTS);
    report.note("generate_s", generated.elapsed().as_secs_f64().to_string());
    report.note("tasks", input.spec.task_count().to_string());
    report.note("edges", input.spec.dependency_count().to_string());
    report.note("composites", input.view.composite_count().to_string());
    report.note_str(
        "fsync_policy",
        "fsync_every=0 (OS flush; synced at rotation and shutdown)",
    );
    if cfg.corrupt {
        input
            .expected_unsound
            .insert("no-such-composite".to_owned());
    }

    // Each set-up is followed by its share of the window: every fresh store
    // lays out its verdict cache anew, and a run that measured only one
    // layout inherited its luck (validate p50 moved by a fifth between
    // identical runs). Only the validate that follows a finished remove/add
    // pair is a `validate` sample: the mid-pair one recomputes what the
    // removal invalidated, a different population, and a median over the
    // mix sits on the boundary between the two; it goes to the record.
    let sessions = cfg.setup_reps(SESSIONS);
    let mut samples = RoundSamples::default();
    let mut tracer = cfg.tracer();
    let mut rng = Rng::new(cfg.seed ^ 0xED17);
    let (mut setup, mut by_session) = (Vec::new(), Vec::new());
    let (mut elapsed, mut completed, mut round) = (0.0, 0, 0u64);
    let mut last = None;
    for rep in 0..sessions {
        drop(last.take());
        release_freed_memory();
        let dir = scratch.sub(&format!("data-{rep}"));
        let start = Instant::now();
        let (store, _) = open_data_dir(&dir, Some(SHARDS))?;
        let mut served = Served::start(store)?;
        let id = served.client().register_text(&input.text)?;
        served.client().validate(id, None)?;
        served.client().provenance(id, &input.subjects[0].name)?;
        setup.push(start.elapsed().as_secs_f64());
        let mut session = Session::new(served);

        let mut session_samples = RoundSamples::default();
        let mut window = Window::start(cfg.seconds / sessions as f64, cfg.trace, &mut tracer);
        while window.running(&mut tracer) {
            round += 1;
            let edge = input.edges[rng.below(input.edges.len())];
            let subject = &input.subjects[rng.below(input.subjects.len())];
            let start = Instant::now();
            let (t, c) = (&mut tracer, &mut report.checker);
            let s = &mut session_samples;
            session.edit_round(t, c, s, &input, id, edge, subject, round);
            window.round(&tracer, start.elapsed());
        }
        if cfg.trace {
            window.report(report);
        }
        elapsed += window.elapsed_s();
        completed += session.completed;
        by_session.push(session_samples.validate.p50_us());
        samples.extend(&session_samples);
        last = Some((session, id, dir));
    }
    let (mut session, id, dir) = last.ok_or("no session ran")?;
    report.note("rounds", round.to_string());

    if cfg.trace {
        let ladder = Ladder {
            input: &input,
            script: input.edge_script(ladder_pairs, &mut rng),
            reps: 3,
            shards: SHARDS,
        };
        let mut wire = std::mem::take(&mut session.stats);
        drop(session);
        ladder.run(&scratch, report, &mut tracer, &mut wire)?;
        cfg.finish_trace(&tracer, report)?;
        return Ok(());
    }

    report.metric("setup_s", median(&setup), "s");
    report.metric("ops_per_s", completed as f64 / elapsed, "1/s");
    report.latency("mutate", &samples.mutate);
    report.latency("validate", &samples.validate);
    report.latency("provenance", &samples.provenance);
    report.note(
        "mid_pair_validate_p50_us",
        samples.mid_validate.p50_us().to_string(),
    );
    report.note("validate_p50_us_by_session", format!("{by_session:?}"));

    // recovery after a fixed edit count: compact, edit, drop, reopen copies
    let served = &mut session.served;
    served.store().snapshot_all()?;
    for _ in 0..recover_pairs {
        let (remove, add) = input.edit_ops(input.edges[rng.below(input.edges.len())]);
        served.client().mutate(id, remove)?;
        served.client().mutate(id, add)?;
    }
    let exported = served.store().export(id)?;
    drop(session.served.stop());
    release_freed_memory();
    let mut recover = Vec::new();
    for rep in 0..RECOVER_REPS {
        let copy = scratch.sub(&format!("recover-{rep}"));
        copy_dir(&dir, &copy)?;
        let start = Instant::now();
        let (store, recovery) = open_data_dir(&copy, None)?;
        recover.push(start.elapsed().as_secs_f64());
        report.checker.check::<String>(
            "recovered store replays every edit and exports the same workflow",
            Ok(recovery.replayed_records == 2 * recover_pairs && store.export(id)? == exported),
        );
        drop(store);
        release_freed_memory();
        std::fs::remove_dir_all(&copy)?;
    }
    report.metric("recover_s", median(&recover), "s");
    report.note("recover_edits", (2 * recover_pairs).to_string());
    Ok(())
}
