//! The per-layer ladder of the traced mode: the same workflow and edit
//! script a workload uses, replayed against each layer's public entry
//! points from outside, bottom (`graph`) to top (`wire`).
//!
//! | Layer | Entry points |
//! |---|---|
//! | `graph` | `ReachMatrix::{build, insert_edge, remove_edge}` |
//! | `workflow` | `WorkflowSpec::{apply, clone}` |
//! | `core` | `validate`, `validate_by_definition`, `correct_view` |
//! | `provenance` | `ViewProvenanceIndex`, `workflow_level_provenance` |
//! | `moml` | `read_text_format` |
//! | `store` | `WorkflowStore::{try_register, mutate, validate, provenance, stats}` |
//! | `wal` | `FileBackend` through `StorageBackend::observe` and reopening |
//! | `wire` | `proto` + `server` + `ServiceClient` (see [`crate::wire`]) |

use std::collections::BTreeSet;
use std::error::Error;
use std::hint::black_box;
use std::time::Instant;

use wolves_core::correct::{correct_view, Strategy};
use wolves_core::validate::{validate, validate_by_definition};
use wolves_graph::ReachMatrix;
use wolves_moml::read_text_format;
use wolves_provenance::query::{workflow_level_provenance, ViewProvenanceIndex};
use wolves_service::{open_data_dir, Verb, WorkflowId, WorkflowStore};
use wolves_workflow::{DataDependency, SpecMutation, TaskId};

use crate::input::{unsound_names, Input};
use crate::trace::Tracer;
use crate::util::{copy_dir, Report, Samples, ScratchDir};
use crate::wire::{Op, RoundSamples, Served, Session, WireStats};

/// Request ids of ladder spans start here, apart from the workload's own.
const LADDER_REQUESTS: u64 = 1 << 40;

pub struct Ladder<'a> {
    pub input: &'a Input,
    /// Dependencies to remove and put back, one pair of edits each.
    pub script: Vec<(TaskId, TaskId)>,
    /// Repetitions of whole-workflow steps (builds, checks, clones).
    pub reps: usize,
    pub shards: usize,
}

fn layer(report: &mut Report, name: &str, samples: &Samples) -> f64 {
    let value = samples.p50_us();
    report.metric(name, value, "us");
    report.samples.insert(name.to_owned(), samples.len() as u64);
    value
}

fn count(report: &mut Report, name: &str, value: f64, unit: &'static str, samples: u64) {
    report.metric(name, value, unit);
    report.samples.insert(name.to_owned(), samples);
}

impl Ladder<'_> {
    pub fn run(
        &self,
        scratch: &ScratchDir,
        report: &mut Report,
        tracer: &mut Tracer,
        wire: &mut WireStats,
    ) -> Result<(), Box<dyn Error>> {
        let engine = self.engine(report)?;
        let store = self.store(scratch, report, engine)?;
        self.wire_and_replay(scratch, report, tracer, wire, store)
    }

    /// `graph`, `workflow`, `core`, `provenance` and `moml`. Returns the
    /// engine-level medians the store is compared with.
    fn engine(&self, report: &mut Report) -> Result<EngineTimes, Box<dyn Error>> {
        let input = self.input;
        let (spec, view) = (&input.spec, &input.view);
        let _ = spec.reachability();

        let mut build = Samples::default();
        for _ in 0..self.reps {
            build.time(|| black_box(ReachMatrix::build(spec.graph()).map(|m| m.comp_count())))?;
        }
        layer(report, "graph.matrix_build_us", &build);
        let mut matrix = ReachMatrix::build(spec.graph())?;
        count(
            report,
            "graph.matrix_bytes",
            (matrix.comp_count() * matrix.row_stride() * 8) as f64,
            "bytes",
            1,
        );
        let mut graph = spec.graph().clone();
        let (mut insert, mut remove, mut both) = Default::default();
        for &(from, to) in &self.script {
            let edge = graph.find_edge(from, to).ok_or("script edge is missing")?;
            graph.remove_edge(edge)?;
            let start = Instant::now();
            matrix.remove_edge(&graph, from, to)?;
            let elapsed = start.elapsed();
            Samples::push(&mut remove, elapsed);
            Samples::push(&mut both, elapsed);
            graph.add_edge_unique(from, to, DataDependency::unnamed())?;
            let start = Instant::now();
            matrix.insert_edge(from, to)?;
            let elapsed = start.elapsed();
            Samples::push(&mut insert, elapsed);
            Samples::push(&mut both, elapsed);
        }
        layer(report, "graph.insert_edge_us", &insert);
        layer(report, "graph.remove_edge_us", &remove);
        let agrees = input.subjects.iter().all(|s| {
            input
                .spec
                .task_ids()
                .take(256)
                .all(|t| matrix.reachable(t, s.task) == spec.reaches(t, s.task))
        });
        report
            .checker
            .check::<String>("graph: edited matrix equals a fresh build", Ok(agrees));

        let mut clone = Samples::default();
        for _ in 0..self.reps {
            clone.time(|| black_box(spec.clone()));
        }
        let clone_us = layer(report, "workflow.spec_clone_us", &clone);
        let mut edited = spec.clone();
        let mut apply = Samples::default();
        for &(from, to) in &self.script {
            apply.time(|| edited.apply(SpecMutation::RemoveDependency { from, to }))?;
            apply.time(|| edited.apply(SpecMutation::AddDependency { from, to }))?;
        }
        let apply_us = layer(report, "workflow.apply_us", &apply);
        report.checker.check::<String>(
            "workflow: edit pairs restore the verdict",
            Ok(unsound_names(&edited, view) == input.expected_unsound),
        );
        report.metric(
            "ratio.engine_over_graph.mutate",
            apply_us / both.p50_us(),
            "ratio",
        );

        let (mut prop21, mut def21, mut weak, mut strong) = Default::default();
        for _ in 0..self.reps {
            Samples::time(&mut prop21, || black_box(validate(spec, view).is_sound()));
            Samples::time(&mut def21, || {
                black_box(validate_by_definition(spec, view).is_sound())
            });
            Samples::time(&mut weak, || {
                correct_view(spec, view, &*Strategy::Weak.corrector()).map(|(v, _)| black_box(v))
            })?;
            Samples::time(&mut strong, || {
                correct_view(spec, view, &*Strategy::Strong.corrector()).map(|(v, _)| black_box(v))
            })?;
        }
        let prop21_us = layer(report, "core.prop21_us", &prop21);
        layer(report, "core.def21_us", &def21);
        layer(report, "core.correct_weak_us", &weak);
        layer(report, "core.correct_strong_us", &strong);
        count(
            report,
            "core.unsound_composites",
            input.expected_unsound.len() as f64,
            "count",
            1,
        );

        let mut index_build = Samples::default();
        for _ in 0..self.reps {
            index_build.time(|| black_box(ViewProvenanceIndex::new(spec, view)));
        }
        layer(report, "provenance.index_build_us", &index_build);
        let index = ViewProvenanceIndex::new(spec, view);
        let (mut query, mut workflow_query) = (Samples::default(), Samples::default());
        for subject in &input.subjects {
            query.time(|| black_box(index.provenance(view, subject.task)));
            workflow_query.time(|| black_box(workflow_level_provenance(spec, subject.task)));
        }
        let query_us = layer(report, "provenance.query_us", &query);
        layer(report, "provenance.workflow_query_us", &workflow_query);

        let mut parse = Samples::default();
        for _ in 0..self.reps {
            parse.time(|| read_text_format(&input.text).map(black_box))?;
        }
        layer(report, "moml.textfmt_parse_us", &parse);
        Ok(EngineTimes {
            clone_us,
            apply_us,
            prop21_us,
            query_us,
        })
    }

    /// `store` and `wal` through in-process calls on a durable store.
    fn store(
        &self,
        scratch: &ScratchDir,
        report: &mut Report,
        engine: EngineTimes,
    ) -> Result<(WorkflowStore, WorkflowId), Box<dyn Error>> {
        let input = self.input;
        let mut register = Samples::default();
        let mut last = None;
        for rep in 0..self.reps.min(3) {
            // drop the previous store before its directory is reused
            drop(last.take());
            let (store, _) =
                open_data_dir(&scratch.sub(&format!("ladder-{rep}")), Some(self.shards))?;
            let (spec, view) = (input.spec.clone(), Some(input.view.clone()));
            let id = register.time(|| store.try_register(spec, view))?;
            last = Some((store, id));
        }
        layer(report, "store.register_us", &register);
        let (store, id) = last.ok_or("no ladder store")?;
        store.validate(id, None)?;
        store.snapshot_all()?;
        copy_dir(
            &scratch.sub(&format!("ladder-{}", self.reps.min(3) - 1)),
            &scratch.sub("ladder-base"),
        )?;

        let stats_before = store.stats();
        let wal_before = store.backend().observe();
        let hist_before =
            [Verb::Mutate, Verb::Validate, Verb::Provenance].map(|v| store.verb_histogram(v));
        let (mut mutate, mut validate_s, mut provenance) = Default::default();
        for (i, &edge) in self.script.iter().enumerate() {
            let (remove, add) = input.edit_ops(edge);
            Samples::time(&mut mutate, || store.mutate(id, remove))?;
            Samples::time(&mut validate_s, || store.validate(id, None))?;
            Samples::time(&mut mutate, || store.mutate(id, add))?;
            let verdict = Samples::time(&mut validate_s, || store.validate(id, None))?;
            let unsound: BTreeSet<String> = verdict.unsound.into_iter().collect();
            report.checker.check::<String>(
                "store: edit pair restores the verdict",
                Ok(unsound == input.expected_unsound),
            );
            let subject = &input.subjects[i % input.subjects.len()];
            let answer = Samples::time(&mut provenance, || store.provenance(id, &subject.name))?;
            let answer: BTreeSet<String> = answer.into_iter().collect();
            report
                .checker
                .check::<String>("store: provenance answer", Ok(answer == subject.expected));
        }
        let stats_after = store.stats();
        let wal_after = store.backend().observe();
        let hist_after =
            [Verb::Mutate, Verb::Validate, Verb::Provenance].map(|v| store.verb_histogram(v));

        let mutate_us = layer(report, "store.mutate_us", &mutate);
        let validate_us = layer(report, "store.validate_us", &validate_s);
        let provenance_us = layer(report, "store.provenance_us", &provenance);
        for (i, name) in ["mutate", "validate", "provenance"].iter().enumerate() {
            let n = hist_after[i].count() - hist_before[i].count();
            let sum = hist_after[i].sum - hist_before[i].sum;
            count(
                report,
                &format!("store.{name}_hist_mean_us"),
                sum as f64 / n.max(1) as f64 / 1e3,
                "us",
                n,
            );
        }
        let delta = |f: fn(&wolves_service::proto::ShardStat) -> u64| -> u64 {
            let sum =
                |report: &wolves_service::StatsReport| report.shards.iter().map(f).sum::<u64>();
            sum(&stats_after) - sum(&stats_before)
        };
        let hits = delta(|s| s.composite_hits);
        let misses = delta(|s| s.composite_misses);
        let edits = mutate.len() as u64;
        count(
            report,
            "store.composite_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
            hits + misses,
        );
        count(
            report,
            "store.composites_recomputed_per_edit",
            misses as f64 / edits.max(1) as f64,
            "count",
            edits,
        );
        count(
            report,
            "store.snapshot_publishes",
            delta(|s| s.snapshot_publishes) as f64,
            "count",
            edits,
        );
        let appends = wal_after.append.count() - wal_before.append.count();
        let append_us =
            (wal_after.append.sum - wal_before.append.sum) as f64 / appends.max(1) as f64 / 1e3;
        count(report, "wal.append_us", append_us, "us", appends);
        count(
            report,
            "wal.append_bytes_per_op",
            (wal_after.append_bytes - wal_before.append_bytes) as f64 / edits.max(1) as f64,
            "bytes",
            edits,
        );
        count(
            report,
            "wal.rotations",
            (wal_after.rotations - wal_before.rotations) as f64,
            "count",
            edits,
        );
        report.metric(
            "ratio.store_over_engine.mutate",
            mutate_us / engine.apply_us,
            "ratio",
        );
        report.metric(
            "ratio.store_over_engine.validate",
            validate_us / engine.prop21_us,
            "ratio",
        );
        report.metric(
            "ratio.store_over_engine.provenance",
            provenance_us / engine.query_us,
            "ratio",
        );
        report.metric(
            "store.mutate_explained_share",
            (engine.clone_us + engine.apply_us + append_us) / mutate_us,
            "ratio",
        );
        Ok((store, id))
    }

    /// `wire` (only for verbs the workload itself did not send over the
    /// wire), then the `wal` replay cost of the script's records.
    fn wire_and_replay(
        &self,
        scratch: &ScratchDir,
        report: &mut Report,
        tracer: &mut Tracer,
        wire: &mut WireStats,
        (store, id): (WorkflowStore, WorkflowId),
    ) -> Result<(), Box<dyn Error>> {
        let input = self.input;
        let expected_export = store.export(id)?;
        if Op::ALL.iter().any(|&op| !wire.has(op)) {
            let mut session = Session::new(Served::start(store)?);
            session.stats = std::mem::take(wire);
            let mut samples = RoundSamples::default();
            for (i, &edge) in self.script.iter().enumerate() {
                let subject = &input.subjects[i % input.subjects.len()];
                let round = LADDER_REQUESTS + i as u64;
                let c = &mut report.checker;
                session.edit_round(tracer, c, &mut samples, input, id, edge, subject, round);
            }
            *wire = std::mem::take(&mut session.stats);
            drop(session.served.stop());
        } else {
            drop(store);
        }
        wire.report(report);
        let dir = scratch.sub(&format!("ladder-{}", self.reps.min(3) - 1));
        let start = Instant::now();
        let (base, _) = open_data_dir(&scratch.sub("ladder-base"), None)?;
        let base_s = start.elapsed().as_secs_f64();
        drop(base);
        let start = Instant::now();
        let (reopened, recovery) = open_data_dir(&dir, None)?;
        let full_s = start.elapsed().as_secs_f64();
        report.checker.check::<String>(
            "wal: reopened store exports the same workflow",
            Ok(reopened.export(id)? == expected_export),
        );
        let records = recovery.replayed_records as f64;
        count(
            report,
            "wal.replay_us_per_record",
            (full_s - base_s).max(0.0) * 1e6 / records.max(1.0),
            "us",
            recovery.replayed_records as u64,
        );
        Ok(())
    }
}

struct EngineTimes {
    clone_us: f64,
    apply_us: f64,
    prop21_us: f64,
    query_us: f64,
}
