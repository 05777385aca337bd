//! `read_hot`: analysts reading settled workflows. 64 ~500-task workflows
//! on two shards of a durable store, every verdict and provenance index
//! warmed during set-up, then a closed loop on one connection of
//! validate:provenance at 3:1 spread over the workflows, with no writes.
//!
//! The working set fits in the program's caches, so a request costs the
//! `wire` (parse, render, socket, dispatch) plus a snapshot load and a
//! cache lookup. A fixed write phase after each session's read window
//! measures what the read loop cannot: edits on the same workflows over the
//! same connection; a reopen of the last data dir ends the run.

use std::collections::BTreeSet;
use std::error::Error;
use std::time::Instant;

use wolves_service::{open_data_dir, WorkflowId};

use crate::input::Input;
use crate::ladder::Ladder;
use crate::process::release_freed_memory;
use crate::util::{copy_dir, median, Report, Rng, Samples, ScratchDir};
use crate::wire::{is_mutated, mutate_request, provenance_is, verdict_is, Op, Served, Session};
use crate::{Config, Window};

const SHARDS: usize = 2;
const SUBJECTS: usize = 8;
const RECOVER_REPS: usize = 5;
/// Set-ups per untraced run, each measuring its share of the window.
const SESSIONS: usize = 3;

pub fn run(cfg: &Config, report: &mut Report) -> Result<(), Box<dyn Error>> {
    let scratch = ScratchDir::new("read_hot")?;
    let (workflows, tasks, write_pairs) = if cfg.tiny {
        (4, 60, 10)
    } else {
        (64, 500, 1_500)
    };
    let generated = Instant::now();
    let mut seeds = Rng::new(cfg.seed ^ 0x4EAD);
    let mut inputs: Vec<Input> = (0..workflows)
        .map(|_| Input::layered(tasks, seeds.next_u64(), SUBJECTS))
        .collect();
    report.note("generate_s", generated.elapsed().as_secs_f64().to_string());
    report.note("workflows", workflows.to_string());
    report.note(
        "tasks",
        inputs
            .iter()
            .map(|i| i.spec.task_count())
            .sum::<usize>()
            .to_string(),
    );
    report.note_str(
        "fsync_policy",
        "fsync_every=0 (OS flush; synced at rotation and shutdown)",
    );
    if cfg.corrupt {
        inputs[0]
            .expected_unsound
            .insert("no-such-composite".to_owned());
    }

    // Each set-up (a fresh data dir, the server, every upload, every verdict
    // and provenance index warmed) is followed by its share of the window,
    // so a run averages over several cache layouts.
    let sessions = cfg.setup_reps(SESSIONS);
    let (mut validate, mut provenance, mut mutate) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut tracer = cfg.tracer();
    let mut rng = Rng::new(cfg.seed ^ 0x407);
    let mut write_rng = Rng::new(cfg.seed ^ 0x3417E);
    let (mut setup, mut elapsed, mut reads, mut request) = (Vec::new(), 0.0, 0, 0u64);
    let mut last = None;
    for rep in 0..sessions {
        drop(last.take());
        release_freed_memory();
        let dir = scratch.sub(&format!("data-{rep}"));
        let start = Instant::now();
        let (store, _) = open_data_dir(&dir, Some(SHARDS))?;
        let mut served = Served::start(store)?;
        let mut ids = Vec::with_capacity(inputs.len());
        for input in &inputs {
            let id = served.client().register_text(&input.text)?;
            served.client().validate(id, None)?;
            served.client().provenance(id, &input.subjects[0].name)?;
            ids.push(id);
        }
        setup.push(start.elapsed().as_secs_f64());
        let mut session = Session::new(served);

        let mut window = Window::start(cfg.seconds / sessions as f64, cfg.trace, &mut tracer);
        while window.running(&mut tracer) {
            request += 1;
            let w = rng.below(inputs.len());
            let (input, id) = (&inputs[w], ids[w]);
            let start = Instant::now();
            let (t, c) = (&mut tracer, &mut report.checker);
            if rng.below(4) < 3 {
                let what = "verdict equals the set-up verdict";
                let expected = verdict_is(&input.expected_unsound);
                let req = Op::Validate.request(id, "");
                session.ask(
                    t,
                    c,
                    &mut validate,
                    Op::Validate,
                    &req,
                    None,
                    request,
                    what,
                    expected,
                );
            } else {
                let subject = &input.subjects[rng.below(input.subjects.len())];
                let what = "provenance equals the set-up answer";
                let expected = provenance_is(&subject.expected);
                let req = Op::Provenance.request(id, &subject.name);
                session.ask(
                    t,
                    c,
                    &mut provenance,
                    Op::Provenance,
                    &req,
                    None,
                    request,
                    what,
                    expected,
                );
            }
            window.round(&tracer, start.elapsed());
        }
        if cfg.trace {
            window.report(report);
        }
        elapsed += window.elapsed_s();
        reads += session.completed;
        // the session's share of the write phase: a fixed number of edit
        // pairs over the same connection after its read window, each
        // workflow left as it was; spread over the sessions so a passing
        // burst of host noise does not set the mutate percentiles
        let (t, c) = (&mut tracer, &mut report.checker);
        for pair in 0..write_pairs / sessions {
            let w = write_rng.below(inputs.len());
            let (input, id) = (&inputs[w], ids[w]);
            let (remove, add) = input.edit_ops(input.edges[write_rng.below(input.edges.len())]);
            let (remove, add) = (mutate_request(id, remove), mutate_request(id, add));
            let request = (1 << 32) + (rep * write_pairs + pair) as u64;
            let mutated = is_mutated;
            session.ask(
                t,
                c,
                &mut mutate,
                Op::Mutate,
                &remove,
                None,
                request,
                "remove-edge",
                mutated,
            );
            session.ask(
                t,
                c,
                &mut mutate,
                Op::Mutate,
                &add,
                None,
                request,
                "add-edge",
                mutated,
            );
        }
        for (input, &id) in inputs.iter().zip(&ids) {
            let verdict = session.served.client().validate(id, None);
            let what = "verdict after the write phase equals the set-up verdict";
            c.check(
                what,
                verdict.map(|v| {
                    v.unsound.into_iter().collect::<BTreeSet<_>>() == input.expected_unsound
                }),
            );
        }
        last = Some((session, ids, dir));
    }
    let (mut session, ids, dir) = last.ok_or("no session ran")?;
    report.note("requests", request.to_string());

    if cfg.trace {
        let ladder = Ladder {
            input: &inputs[0],
            script: inputs[0].edge_script(if cfg.tiny { 5 } else { 200 }, &mut rng),
            reps: 5,
            shards: SHARDS,
        };
        let mut wire = std::mem::take(&mut session.stats);
        drop(session);
        ladder.run(&scratch, report, &mut tracer, &mut wire)?;
        cfg.finish_trace(&tracer, report)?;
        return Ok(());
    }

    report.metric("setup_s", median(&setup), "s");
    report.metric("ops_per_s", reads as f64 / elapsed, "1/s");
    report.latency("validate", &validate);
    report.latency("provenance", &provenance);
    report.latency("mutate", &mutate);

    // recovery of the registrations and the write phase
    let exported = exports(session.served.store(), &ids)?;
    drop(session.served.stop());
    release_freed_memory();
    let mut recover = Vec::new();
    for rep in 0..RECOVER_REPS {
        let copy = scratch.sub(&format!("recover-{rep}"));
        copy_dir(&dir, &copy)?;
        let start = Instant::now();
        let (store, _) = open_data_dir(&copy, None)?;
        recover.push(start.elapsed().as_secs_f64());
        report.checker.check::<String>(
            "recovered store exports the same workflows",
            Ok(exports(&store, &ids)? == exported),
        );
        drop(store);
        release_freed_memory();
        std::fs::remove_dir_all(&copy)?;
    }
    report.metric("recover_s", median(&recover), "s");
    Ok(())
}

fn exports(
    store: &wolves_service::WorkflowStore,
    ids: &[WorkflowId],
) -> Result<Vec<String>, wolves_service::ServiceError> {
    ids.iter().map(|&id| store.export(id)).collect()
}
