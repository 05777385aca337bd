//! Property-based integration tests: the soundness and optimality
//! guarantees of the correctors must hold on arbitrary small DAG workflows,
//! not just on the paper's examples, and the served provenance index must
//! answer like the induced-graph walk on DAG and cyclic specs.

use std::collections::BTreeSet;

use proptest::prelude::*;
use wolves::core::correct::check::{
    is_sound_split, is_strong_local_optimal, is_weak_local_optimal,
};
use wolves::core::correct::{Corrector, OptimalCorrector, StrongCorrector, WeakCorrector};
use wolves::core::validate::{validate, validate_by_definition};
use wolves::provenance::{view_level_provenance, ViewProvenanceIndex};
use wolves::workflow::{AtomicTask, DataDependency, TaskId, WorkflowSpec, WorkflowView};

/// A random small DAG workflow: nodes 0..n with edges oriented from lower to
/// higher index, plus an external source and sink so composites have real
/// boundaries.
fn arbitrary_workflow() -> impl Strategy<Value = (WorkflowSpec, Vec<TaskId>)> {
    (
        3usize..9,
        proptest::collection::vec((0usize..9, 0usize..9), 2..20),
        0u8..=1,
    )
        .prop_map(|(n, raw_edges, connect_boundary)| {
            let mut spec = WorkflowSpec::new("prop-workflow");
            let source = spec.add_task(AtomicTask::new("source")).unwrap();
            let sink = spec.add_task(AtomicTask::new("sink")).unwrap();
            let tasks: Vec<TaskId> = (0..n)
                .map(|i| spec.add_task(AtomicTask::new(format!("t{i}"))).unwrap())
                .collect();
            for (a, b) in raw_edges {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                if lo == hi || lo >= n || hi >= n {
                    continue;
                }
                let _ = spec.add_dependency(tasks[lo], tasks[hi], DataDependency::unnamed());
            }
            // boundary dataflow: the source feeds every root, every leaf
            // feeds the sink (when connect_boundary is 1, only half of them,
            // to vary the boundary shapes)
            for (i, &task) in tasks.iter().enumerate() {
                let is_root = spec.predecessors(task).count() == 0;
                let is_leaf = spec.successors(task).count() == 0;
                if is_root && (connect_boundary == 0 || i % 2 == 0) {
                    let _ = spec.add_dependency(source, task, DataDependency::unnamed());
                }
                if is_leaf && (connect_boundary == 0 || i % 2 == 1) {
                    let _ = spec.add_dependency(task, sink, DataDependency::unnamed());
                }
            }
            (spec, tasks)
        })
}

/// A random spec over up to 13 tasks — a DAG, or with random edge
/// orientations so that cycles form — under a random partition view, after
/// a few edits that leave tombstoned task and composite slots behind: task
/// removals (spec and view together), composite splits and merges.
fn arbitrary_edited_view() -> impl Strategy<Value = (WorkflowSpec, WorkflowView)> {
    (
        (4usize..14, 0u8..=1),
        proptest::collection::vec((0usize..14, 0usize..14), 2..30),
        proptest::collection::vec(0usize..5, 14..15),
        proptest::collection::vec((0u8..3, 0usize..14, 0usize..14), 0..5),
    )
        .prop_map(|((n, cyclic), raw_edges, group_of, edits)| {
            let mut spec = WorkflowSpec::new("prop-edited");
            let tasks: Vec<TaskId> = (0..n)
                .map(|i| spec.add_task(AtomicTask::new(format!("t{i}"))).unwrap())
                .collect();
            for (a, b) in raw_edges {
                let (from, to) = if cyclic == 1 || a < b { (a, b) } else { (b, a) };
                if from != to && from < n && to < n {
                    let _ = spec.add_dependency(tasks[from], tasks[to], DataDependency::unnamed());
                }
            }
            let mut groups: Vec<(String, Vec<TaskId>)> =
                (0..5).map(|g| (format!("g{g}"), Vec::new())).collect();
            for (i, &task) in tasks.iter().enumerate() {
                groups[group_of[i]].1.push(task);
            }
            groups.retain(|(_, members)| !members.is_empty());
            let mut view = WorkflowView::from_groups(&spec, "prop-partition", groups).unwrap();
            for (step, (kind, a, b)) in edits.into_iter().enumerate() {
                let live: Vec<TaskId> = spec.task_ids().collect();
                let composites: Vec<_> = view.composite_ids().collect();
                match kind {
                    0 if live.len() > 2 => {
                        let task = live[a % live.len()];
                        view.remove_member(task).unwrap();
                        spec.remove_task(task).unwrap();
                    }
                    1 => {
                        let splittable: Vec<_> = view
                            .composites()
                            .filter(|(_, c)| c.len() > 1)
                            .map(|(id, c)| (id, c.members().iter().copied().collect::<Vec<_>>()))
                            .collect();
                        if let Some((id, members)) = splittable.get(a % splittable.len().max(1)) {
                            let (head, rest) = members.split_at(1 + b % (members.len() - 1));
                            view.split_composite(*id, vec![head.to_vec(), rest.to_vec()])
                                .unwrap();
                        }
                    }
                    _ if composites.len() > 1 => {
                        let first = composites[a % composites.len()];
                        let second = composites[b % composites.len()];
                        if first != second {
                            view.merge_composites(&[first, second], format!("m{step}"))
                                .unwrap();
                        }
                    }
                    _ => {}
                }
            }
            (spec, view)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The predecessor-list index answers every live subject exactly like
    /// the induced-graph walk — tasks, composites and edges traversed —
    /// on DAG and cyclic specs, across tombstoned task and composite slots.
    #[test]
    fn provenance_index_matches_the_view_walk((spec, view) in arbitrary_edited_view()) {
        let index = ViewProvenanceIndex::new(&spec, &view);
        for subject in spec.task_ids() {
            let walked = view_level_provenance(&spec, &view, subject);
            let indexed = index.provenance(&view, subject);
            prop_assert_eq!(&indexed.tasks, &walked.tasks, "tasks for {:?}", subject);
            prop_assert_eq!(&indexed.composites, &walked.composites, "composites for {:?}", subject);
            prop_assert_eq!(indexed.edges_traversed, walked.edges_traversed, "edges for {:?}", subject);
        }
    }

    /// Every corrector output is a sound partition of the composite; the
    /// weak output satisfies Definition 2.5, the strong output Definition
    /// 2.6, and the part counts are ordered optimal ≤ strong ≤ weak.
    #[test]
    fn correctors_satisfy_their_guarantees((spec, tasks) in arbitrary_workflow()) {
        let members: BTreeSet<TaskId> = tasks.iter().copied().collect();
        let weak = WeakCorrector::new().split(&spec, &members).unwrap();
        let strong = StrongCorrector::new().split(&spec, &members).unwrap();
        let optimal = OptimalCorrector::with_limit(12).split(&spec, &members).unwrap();

        prop_assert!(is_sound_split(&spec, &members, &weak));
        prop_assert!(is_sound_split(&spec, &members, &strong));
        prop_assert!(is_sound_split(&spec, &members, &optimal));

        prop_assert!(is_weak_local_optimal(&spec, &weak));
        prop_assert!(is_strong_local_optimal(&spec, &strong));

        prop_assert!(optimal.part_count() <= strong.part_count());
        prop_assert!(strong.part_count() <= weak.part_count());
    }

    /// Correcting a whole view yields a view that is sound under both the
    /// per-composite check (Proposition 2.1) and the definition-based check,
    /// and Proposition 2.1 soundness always implies definition soundness.
    #[test]
    fn corrected_views_are_sound_under_both_checks(
        (spec, _tasks) in arbitrary_workflow(),
        group_count in 2usize..4,
    ) {
        // build a (probably unsound) view by dealing tasks round-robin
        let mut groups: Vec<(String, Vec<TaskId>)> = (0..group_count)
            .map(|g| (format!("g{g}"), Vec::new()))
            .collect();
        let mut all: Vec<TaskId> = spec.task_ids().collect();
        all.sort_unstable();
        for (i, task) in all.into_iter().enumerate() {
            groups[i % group_count].1.push(task);
        }
        let view = WorkflowView::from_groups(&spec, "prop-view", groups).unwrap();

        let prop_report = validate(&spec, &view);
        let def_report = validate_by_definition(&spec, &view);
        if prop_report.is_sound() {
            prop_assert!(def_report.is_sound(), "Prop 2.1 soundness must imply Def 2.1 soundness");
        }

        let (corrected, _) =
            wolves::core::correct::correct_view(&spec, &view, &StrongCorrector::new()).unwrap();
        prop_assert!(validate(&spec, &corrected).is_sound());
        prop_assert!(validate_by_definition(&spec, &corrected).is_sound());
        prop_assert!(corrected.validate_against(&spec).is_ok());
    }

    /// View-level provenance never misses true provenance (recall 1.0), and
    /// through a corrected view it never reports more than the unsound view
    /// did.
    #[test]
    fn provenance_recall_is_total((spec, tasks) in arbitrary_workflow()) {
        let members: Vec<TaskId> = tasks;
        // a coarse two-composite view over the middle tasks
        let mut first_half: Vec<TaskId> = Vec::new();
        let mut second_half: Vec<TaskId> = Vec::new();
        for (i, &task) in members.iter().enumerate() {
            if i % 2 == 0 { first_half.push(task) } else { second_half.push(task) }
        }
        let mut groups = vec![("even".to_owned(), first_half), ("odd".to_owned(), second_half)];
        groups.retain(|(_, g)| !g.is_empty());
        for task in spec.task_ids() {
            if !members.contains(&task) {
                groups.push((format!("rest-{task}"), vec![task]));
            }
        }
        let view = WorkflowView::from_groups(&spec, "halves", groups).unwrap();
        let (corrected, _) =
            wolves::core::correct::correct_view(&spec, &view, &WeakCorrector::new()).unwrap();

        for subject in spec.task_ids() {
            let truth = wolves::provenance::workflow_level_provenance(&spec, subject);
            let through_view = wolves::provenance::view_level_provenance(&spec, &view, subject);
            let through_corrected =
                wolves::provenance::view_level_provenance(&spec, &corrected, subject);
            let accuracy = wolves::provenance::compare_to_ground_truth(&truth, &through_view);
            prop_assert!((accuracy.recall - 1.0).abs() < 1e-9);
            prop_assert!(accuracy.missing.is_empty());
            // refinement only removes reported tasks
            prop_assert!(through_corrected.tasks.is_subset(&through_view.tasks));
        }
    }
}
