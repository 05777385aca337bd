//! Micro-benchmark for the reachability engine: matrix build, all-pairs
//! row queries, the two validator checks, the view provenance index (build,
//! and 32 stratified subject queries) and the **mutation workload**
//! (incremental single-edge edits vs from-scratch rebuilds) over a grid of
//! task counts.
//!
//! Usage:
//!
//! ```text
//! graph_bench                     # full grid, JSON on stdout
//! graph_bench --quick             # smaller grid / fewer iterations (CI)
//! graph_bench --out BENCH_graph.json
//! graph_bench --mutation-out BENCH_mutation.json
//! ```
//!
//! The output is machine-readable JSON (handwritten — no serde in the
//! workspace), one row per (workload, task count) point, so the perf
//! trajectory of the graph substrate can be recorded across PRs alongside
//! `BENCH_service.json`. The mutation workload applies N random edge
//! inserts to a live matrix — and then takes the same edges back out: the
//! `*_incremental` rows maintain the matrix in place
//! (`ReachMatrix::insert_edge` / `ReachMatrix::remove_edge`), the
//! `*_rebuild` rows pay a full matrix build per edit — the speedup between
//! the two is emitted into the mutation JSON alongside the raw rows.
//!
//! Those removals take back edges the closure already implied, so they only
//! time the still-reachable fast path. `mutation/edge_remove_existing`
//! times the slow path: it removes, then re-adds, seeded random existing
//! dependencies of the layered workflow, which re-derives the region above
//! the removed edge. `mutation/served_edge_pair` runs the same script as
//! `RemoveEdge` + `AddEdge` requests through an in-memory `WorkflowStore`,
//! so the two rows price what serving adds to the engine edit. The mutation
//! workload always includes the ~10k-task point, `--quick` or not.
//!
//! Each JSON carries a `guard` object that CI greps, all within-run ratios
//! so they hold across hosts: removal stays within 10× of insert at the
//! ~1941-task point (mutation JSON), the from-scratch Definition 2.1 check
//! (`validator/definition_closure`) stays within 5× of one matrix build at
//! the same point (graph JSON), and the mutation JSON's `served_guard` keeps
//! a served edge pair within 4× of the engine pair at the largest point.
//! The graph JSON's `provenance_guard` keeps one `ViewProvenanceIndex` build
//! within a quarter of one spec matrix build at the largest point: the index
//! is the view graph's predecessor lists, so it must stay far cheaper than a
//! closure over the tasks.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wolves_core::validate::{validate, validate_by_definition};
use wolves_graph::reach::ReachMatrix;
use wolves_provenance::ViewProvenanceIndex;
use wolves_repo::generate::{layered_workflow, LayeredConfig};
use wolves_repo::views::topological_block_view;
use wolves_service::{MutateOp, WorkflowStore};
use wolves_workflow::{DataDependency, TaskId, WorkflowSpec};

struct Row {
    workload: &'static str,
    tasks: usize,
    edges: usize,
    iterations: usize,
    median_us: f64,
    min_us: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: graph_bench [--quick] [--out <file>] [--mutation-out <file>]");
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let out_path: Option<String> = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned());
    let mutation_out_path: Option<String> = args
        .iter()
        .position(|a| a == "--mutation-out")
        .and_then(|i| args.get(i + 1).cloned());

    // quick (CI) keeps the 1920 target so the perf guards always measure
    // the ~1941-task point; the full grid adds a ~10k-task point, which the
    // mutation workload (cheap at every size) always runs
    let targets: Vec<usize> = if quick {
        vec![120, 480, 1920]
    } else {
        vec![120, 480, 960, 1920, 10080]
    };

    let mut rows = Vec::new();
    for &target in &targets {
        let spec = layered_workflow(&LayeredConfig::sized(target), 23);
        let view = topological_block_view(&spec, 4, "blocks").expect("layered spec is a DAG");
        let tasks = spec.task_count();
        let edges = spec.dependency_count();
        // warm the spec's cached reachability so the validator rows time the
        // checks themselves, not the first-touch matrix build
        let _ = spec.reachability();

        let iters = iterations_for(target, quick);
        rows.push(measure("graph/matrix_build", tasks, edges, iters, || {
            ReachMatrix::build(spec.graph()).unwrap().node_bound()
        }));
        let matrix = ReachMatrix::build(spec.graph()).unwrap();
        // above ~2048 nodes the n² probe loop would dwarf everything else;
        // a fixed-size node window keeps the row comparable across points
        let mut nodes: Vec<_> = spec.graph().node_ids().collect();
        nodes.truncate(2048);
        rows.push(measure(
            "graph/all_pairs_queries",
            tasks,
            edges,
            iters,
            || {
                let mut reachable_pairs = 0usize;
                for &u in &nodes {
                    for &v in &nodes {
                        if matrix.reachable(u, v) {
                            reachable_pairs += 1;
                        }
                    }
                }
                reachable_pairs
            },
        ));
        rows.push(measure(
            "validator/proposition_2_1",
            tasks,
            edges,
            iters,
            || usize::from(validate(&spec, &view).is_sound()),
        ));
        rows.push(measure(
            "validator/definition_closure",
            tasks,
            edges,
            iters.min(40),
            || usize::from(validate_by_definition(&spec, &view).is_sound()),
        ));
        // both provenance rows are cheap next to a matrix build, so they
        // take a larger sample
        rows.push(measure(
            "provenance/index_build",
            tasks,
            edges,
            iters.max(20),
            || {
                std::hint::black_box(ViewProvenanceIndex::new(&spec, &view));
                1
            },
        ));
        let index = ViewProvenanceIndex::new(&spec, &view);
        let all: Vec<TaskId> = spec.task_ids().collect();
        let subjects: Vec<TaskId> = (0..32).map(|k| all[k * all.len() / 32]).collect();
        rows.push(measure(
            "provenance/view_query",
            tasks,
            edges,
            iters.max(20),
            || {
                subjects
                    .iter()
                    .map(|&subject| index.provenance(&view, subject).tasks.len())
                    .sum()
            },
        ));
    }

    // the mutation workload pays a full matrix rebuild per edit for its
    // *_rebuild rows; only run it when its JSON is actually requested
    if let Some(path) = mutation_out_path {
        let mut mutation_targets = targets.clone();
        if !mutation_targets.contains(&10080) {
            mutation_targets.push(10080);
        }
        let mutation_rows = mutation_workload(&mutation_targets, quick);
        let mutation_json = render_mutation_json(&mutation_rows, quick);
        if let Err(e) = std::fs::write(&path, &mutation_json) {
            eprintln!("cannot write '{path}': {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    let json = render_json(&rows, quick);
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("cannot write '{path}': {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    println!("{json}");
}

/// Deterministic low→high candidate edges absent from `spec` — enough for
/// `needed` edits plus the measurement warm-ups, shared by every mutation
/// workload so incremental and rebuild time identical edit sequences.
fn candidate_edges(spec: &WorkflowSpec, needed: usize) -> Vec<(TaskId, TaskId)> {
    let nodes: Vec<TaskId> = spec.task_ids().collect();
    let mut existing: HashSet<(usize, usize)> = spec
        .dependencies()
        .map(|(a, b)| (a.index(), b.index()))
        .collect();
    let mut rng = StdRng::seed_from_u64(0xD1B5_4A32 ^ nodes.len() as u64);
    let mut candidates = Vec::with_capacity(needed);
    while candidates.len() < needed {
        let a = rng.gen_range(0..nodes.len());
        let b = rng.gen_range(0..nodes.len());
        if a == b {
            continue;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if existing.insert((lo, hi)) {
            candidates.push((nodes[lo], nodes[hi]));
        }
    }
    candidates
}

/// Seeded random dependencies that exist in `spec` — `needed` of them,
/// repeats allowed, for the remove-then-re-add script.
fn existing_edges(spec: &WorkflowSpec, needed: usize) -> Vec<(TaskId, TaskId)> {
    let all: Vec<(TaskId, TaskId)> = spec.dependencies().collect();
    let mut rng = StdRng::seed_from_u64(0x5EED_ED6E ^ all.len() as u64);
    (0..needed)
        .map(|_| all[rng.gen_range(0..all.len())])
        .collect()
}

/// The mutation workload: N single-edge inserts and removals per task
/// count, incremental matrix maintenance vs full rebuild, plus the
/// remove-then-re-add script at the engine and through the store.
fn mutation_workload(targets: &[usize], quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for &target in targets {
        let spec = layered_workflow(&LayeredConfig::sized(target), 23);
        let tasks = spec.task_count();
        let edges = spec.dependency_count();
        let iters = iterations_for(target, quick);
        let candidates = candidate_edges(&spec, iters + 2);

        // incremental: one live matrix absorbs a fresh edge per iteration
        let mut matrix = ReachMatrix::build(spec.graph()).unwrap();
        let mut cursor = 0usize;
        rows.push(measure(
            "mutation/edge_insert_incremental",
            tasks,
            edges,
            iters,
            || {
                let (from, to) = candidates[cursor];
                cursor += 1;
                matrix.insert_edge(from, to).unwrap();
                matrix.comp_count()
            },
        ));

        // rebuild: the same edge sequence, full matrix build per edit
        let mut graph = spec.graph().clone();
        let mut cursor = 0usize;
        rows.push(measure(
            "mutation/edge_insert_rebuild",
            tasks,
            edges,
            iters,
            || {
                let (from, to) = candidates[cursor];
                cursor += 1;
                graph
                    .add_edge_unique(from, to, DataDependency::unnamed())
                    .unwrap();
                ReachMatrix::build(&graph).unwrap().node_bound()
            },
        ));

        // removal: pre-insert the same candidate edges, then take them back
        // out LIFO — the decremental in-place maintenance vs a full matrix
        // rebuild per removal. The dense layered closure implies most
        // candidates, so the median exercises the still-reachable fast path
        // exactly like the insert median exercises the closure no-op.
        let mut inc_graph = spec.graph().clone();
        for &(from, to) in &candidates {
            inc_graph
                .add_edge_unique(from, to, DataDependency::unnamed())
                .unwrap();
        }
        let mut matrix = ReachMatrix::build(&inc_graph).unwrap();
        let mut stack = candidates.clone();
        rows.push(measure(
            "mutation/edge_remove_incremental",
            tasks,
            edges,
            iters,
            || {
                let (from, to) = stack.pop().expect("enough candidates");
                let edge = inc_graph.find_edge(from, to).expect("edge was inserted");
                inc_graph.remove_edge(edge).unwrap();
                matrix.remove_edge(&inc_graph, from, to).unwrap();
                matrix.comp_count()
            },
        ));

        let mut rebuild_graph = spec.graph().clone();
        for &(from, to) in &candidates {
            rebuild_graph
                .add_edge_unique(from, to, DataDependency::unnamed())
                .unwrap();
        }
        let mut stack = candidates.clone();
        rows.push(measure(
            "mutation/edge_remove_rebuild",
            tasks,
            edges,
            iters,
            || {
                let (from, to) = stack.pop().expect("enough candidates");
                let edge = rebuild_graph
                    .find_edge(from, to)
                    .expect("edge was inserted");
                rebuild_graph.remove_edge(edge).unwrap();
                ReachMatrix::build(&rebuild_graph).unwrap().node_bound()
            },
        ));

        // the slow removal path: each iteration removes a random existing
        // dependency (re-deriving the region above it) and re-adds it, so
        // every iteration starts from the layered workflow again. Region
        // sizes vary widely between edges, hence the larger sample.
        let pair_iters = iters.max(40);
        let script = existing_edges(&spec, pair_iters + 2);
        let mut graph = spec.graph().clone();
        let mut matrix = ReachMatrix::build(&graph).unwrap();
        let mut cursor = 0usize;
        rows.push(measure(
            "mutation/edge_remove_existing",
            tasks,
            edges,
            pair_iters,
            || {
                let (from, to) = script[cursor];
                cursor += 1;
                let edge = graph.find_edge(from, to).expect("existing dependency");
                graph.remove_edge(edge).unwrap();
                matrix.remove_edge(&graph, from, to).unwrap();
                graph
                    .add_edge_unique(from, to, DataDependency::unnamed())
                    .unwrap();
                matrix.insert_edge(from, to).unwrap();
                matrix.comp_count()
            },
        ));

        // the same script as served requests on an in-memory store
        let view = topological_block_view(&spec, 4, "blocks").expect("layered spec is a DAG");
        let names: Vec<(String, String)> = script
            .iter()
            .map(|&(from, to)| {
                let name = |task| spec.task(task).expect("known task").name.clone();
                (name(from), name(to))
            })
            .collect();
        let store = WorkflowStore::new(1);
        let id = store.register(spec.clone(), Some(view));
        let mut cursor = 0usize;
        rows.push(measure(
            "mutation/served_edge_pair",
            tasks,
            edges,
            pair_iters,
            || {
                let (from, to) = names[cursor].clone();
                cursor += 1;
                let removal = MutateOp::RemoveEdge {
                    from: from.clone(),
                    to: to.clone(),
                };
                store.mutate(id, removal).expect("served removal");
                store
                    .mutate(id, MutateOp::AddEdge { from, to })
                    .expect("served re-add")
                    .epoch as usize
            },
        ));
    }
    rows
}

/// Renders the mutation rows plus derived incremental-vs-rebuild speedups.
fn render_mutation_json(rows: &[Row], quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"wolves mutation epochs\",");
    let _ = writeln!(
        out,
        "  \"workload\": \"single-edge edits: incremental maintenance vs full rebuild, engine vs served\","
    );
    let _ = writeln!(out, "  \"quick\": {quick},");
    out.push_str("  \"rows\": [\n");
    for (index, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"workload\": \"{}\", \"tasks\": {}, \"edges\": {}, \"iterations\": {}, \
             \"median_us\": {:.2}, \"min_us\": {:.2}}}",
            row.workload, row.tasks, row.edges, row.iterations, row.median_us, row.min_us
        );
        out.push_str(if index + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"speedups\": [\n");
    let task_counts: Vec<usize> = {
        let mut seen = Vec::new();
        for row in rows {
            if !seen.contains(&row.tasks) {
                seen.push(row.tasks);
            }
        }
        seen
    };
    let mut entries = Vec::new();
    for &tasks in &task_counts {
        for pair in ["edge_insert", "edge_remove"] {
            let incremental = median_of(rows, &format!("mutation/{pair}_incremental"), tasks);
            let rebuild = median_of(rows, &format!("mutation/{pair}_rebuild"), tasks);
            if let (Some(incremental), Some(rebuild)) = (incremental, rebuild) {
                entries.push(format!(
                    "    {{\"workload\": \"{pair}\", \"tasks\": {tasks}, \
                     \"incremental_median_us\": {incremental:.2}, \
                     \"rebuild_median_us\": {rebuild:.2}, \"speedup\": {:.1}}}",
                    rebuild / incremental.max(f64::MIN_POSITIVE)
                ));
            }
        }
    }
    out.push_str(&entries.join(",\n"));
    out.push('\n');
    out.push_str("  ],\n");
    // CI perf guard: single-edge removal must stay within 10x of insert
    render_guard(
        &mut out,
        "guard",
        rows,
        2048,
        ("mutation/edge_insert_incremental", "insert"),
        ("mutation/edge_remove_incremental", "remove"),
        (10.0, "within_10x"),
    );
    out.push_str(",\n");
    // CI perf guard: a served remove/re-add pair must stay within 4x of the
    // same pair at the engine, at the largest (~10k-task) point
    render_guard(
        &mut out,
        "served_guard",
        rows,
        usize::MAX,
        ("mutation/edge_remove_existing", "engine"),
        ("mutation/served_edge_pair", "served"),
        (4.0, "within_4x"),
    );
    out.push_str("\n}\n");
    out
}

fn median_of(rows: &[Row], workload: &str, tasks: usize) -> Option<f64> {
    rows.iter()
        .find(|r| r.workload == workload && r.tasks == tasks)
        .map(|r| r.median_us)
}

/// Writes a `"<key>"` object (no trailing newline) pinning
/// `numerator ≤ limit × base` at the largest grid point with at most
/// `max_tasks` tasks: 2048 selects the ~1941-task point, present in both
/// the quick and the full grid. Each side is a `(row workload, JSON key)`
/// pair; `limit` is `(factor, verdict key)`, e.g. `(10.0, "within_10x")`.
/// Writes `null` when the grid lacks either row.
fn render_guard(
    out: &mut String,
    key: &str,
    rows: &[Row],
    max_tasks: usize,
    base: (&str, &str),
    numerator: (&str, &str),
    limit: (f64, &str),
) {
    let guard = rows
        .iter()
        .map(|r| r.tasks)
        .filter(|&t| t <= max_tasks)
        .max()
        .and_then(|tasks| {
            let base_us = median_of(rows, base.0, tasks)?;
            let numerator_us = median_of(rows, numerator.0, tasks)?;
            Some((tasks, base_us, numerator_us))
        });
    let Some((tasks, base_us, numerator_us)) = guard else {
        let _ = write!(out, "  \"{key}\": null");
        return;
    };
    let ratio = numerator_us / base_us.max(f64::MIN_POSITIVE);
    let _ = writeln!(out, "  \"{key}\": {{");
    let _ = writeln!(out, "    \"tasks\": {tasks},");
    let _ = writeln!(out, "    \"{}_median_us\": {base_us:.2},", base.1);
    let _ = writeln!(out, "    \"{}_median_us\": {numerator_us:.2},", numerator.1);
    let _ = writeln!(out, "    \"{}_over_{}\": {ratio:.2},", numerator.1, base.1);
    let _ = writeln!(out, "    \"{}\": {}", limit.1, ratio <= limit.0);
    let _ = write!(out, "  }}");
}

fn iterations_for(target: usize, quick: bool) -> usize {
    let base = match target {
        0..=200 => 200,
        201..=600 => 80,
        601..=1200 => 30,
        1201..=4000 => 10,
        _ => 6,
    };
    if quick {
        (base / 4).max(5)
    } else {
        base
    }
}

/// Times `body` for `iterations` runs (after 2 warm-ups) and reports the
/// median and minimum wall-clock time per run in microseconds. A black-box
/// accumulator keeps the optimiser from discarding the work.
fn measure(
    workload: &'static str,
    tasks: usize,
    edges: usize,
    iterations: usize,
    mut body: impl FnMut() -> usize,
) -> Row {
    let mut sink = 0usize;
    for _ in 0..2 {
        sink = sink.wrapping_add(body());
    }
    let mut samples_us: Vec<f64> = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let start = Instant::now();
        sink = sink.wrapping_add(body());
        samples_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    // prevent dead-code elimination of the measured bodies
    assert!(sink != usize::MAX, "benchmark sink overflowed");
    samples_us.sort_by(|a, b| a.total_cmp(b));
    let median_us = samples_us[samples_us.len() / 2];
    let min_us = samples_us[0];
    eprintln!("{workload:>32} @ {tasks:>5} tasks: median {median_us:>10.1} µs (min {min_us:.1})");
    Row {
        workload,
        tasks,
        edges,
        iterations,
        median_us,
        min_us,
    }
}

fn render_json(rows: &[Row], quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"benchmark\": \"wolves-graph reachability engine\","
    );
    let _ = writeln!(
        out,
        "  \"workload\": \"matrix build + row queries + validator checks\","
    );
    let _ = writeln!(out, "  \"quick\": {quick},");
    out.push_str("  \"rows\": [\n");
    for (index, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"workload\": \"{}\", \"tasks\": {}, \"edges\": {}, \"iterations\": {}, \
             \"median_us\": {:.2}, \"min_us\": {:.2}}}",
            row.workload, row.tasks, row.edges, row.iterations, row.median_us, row.min_us
        );
        out.push_str(if index + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    // CI perf guard: the from-scratch Definition 2.1 check must stay within
    // 5x of one reachability matrix build
    render_guard(
        &mut out,
        "guard",
        rows,
        2048,
        ("graph/matrix_build", "matrix_build"),
        ("validator/definition_closure", "definition_closure"),
        (5.0, "within_5x"),
    );
    out.push_str(",\n");
    // CI perf guard: one provenance index build must stay within a quarter
    // of one spec matrix build, at the largest (~10k-task) point
    render_guard(
        &mut out,
        "provenance_guard",
        rows,
        usize::MAX,
        ("graph/matrix_build", "matrix_build"),
        ("provenance/index_build", "index_build"),
        (0.25, "within_quarter"),
    );
    out.push_str("\n}\n");
    out
}
