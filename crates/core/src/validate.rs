//! The Workflow View Validator (paper §2.1).
//!
//! Three checks are implemented:
//!
//! * [`validate`] — the efficient check of Proposition 2.1: a view is sound
//!   if every composite task is sound, which only requires examining each
//!   composite's `T.in × T.out` pairs against the workflow reachability
//!   matrix.
//! * [`validate_by_definition`] — Definition 2.1 applied with polynomial
//!   machinery: workflow reachability and view-level reachability are both
//!   projected onto composite labels in one pass over each graph's strongly
//!   connected components, and the two per-composite label rows are XORed.
//!   O((V+E)·C/64 + C²/64) word operations for V tasks, E dependencies and
//!   C composites, from scratch on every call.
//! * [`validate_naive`] — Definition 2.1 applied literally by enumerating
//!   simple paths (exponential in the worst case); only used by experiment
//!   E5 to illustrate why the paper's per-composite check matters.
//!
//! Note on Proposition 2.1: composite-level soundness *implies*
//! definition-level soundness (every view path is backed by a workflow path),
//! so [`validate`] never accepts a view that [`validate_by_definition`]
//! rejects. The converse can fail on contrived views (a composite may be
//! unsound while every view-level dependency happens to be realised through
//! other paths); the property-based tests pin down exactly this relationship.

use wolves_graph::kernels::{or_into, pad_words};
use wolves_graph::scc::strongly_connected_components_csr;
use wolves_graph::Csr;
use wolves_workflow::{CompositeTaskId, TaskId, WorkflowSpec, WorkflowView};

use crate::soundness::{soundness_verdict, SoundnessVerdict};

/// Soundness verdict for one composite task of a view.
#[derive(Debug, Clone)]
pub struct CompositeReport {
    /// The composite task.
    pub composite: CompositeTaskId,
    /// Name of the composite task.
    pub name: String,
    /// The detailed soundness verdict (boundary + witnesses).
    pub verdict: SoundnessVerdict,
}

/// Result of validating a view with the per-composite check
/// (Proposition 2.1).
#[derive(Debug, Clone)]
pub struct ValidationReport {
    per_composite: Vec<CompositeReport>,
}

impl ValidationReport {
    /// `true` iff every composite task is sound.
    #[must_use]
    pub fn is_sound(&self) -> bool {
        self.per_composite.iter().all(|c| c.verdict.is_sound())
    }

    /// The ids of the unsound composite tasks, in view order.
    #[must_use]
    pub fn unsound_composites(&self) -> Vec<CompositeTaskId> {
        self.per_composite
            .iter()
            .filter(|c| !c.verdict.is_sound())
            .map(|c| c.composite)
            .collect()
    }

    /// Per-composite reports (sound and unsound alike).
    #[must_use]
    pub fn reports(&self) -> &[CompositeReport] {
        &self.per_composite
    }

    /// Number of composite tasks examined.
    #[must_use]
    pub fn composite_count(&self) -> usize {
        self.per_composite.len()
    }
}

/// Validates a view using Proposition 2.1: check each composite task's
/// soundness (Definition 2.3) against the workflow reachability matrix.
#[must_use]
pub fn validate(spec: &WorkflowSpec, view: &WorkflowView) -> ValidationReport {
    let per_composite = view
        .composites()
        .map(|(id, composite)| CompositeReport {
            composite: id,
            name: composite.name.clone(),
            verdict: soundness_verdict(spec, composite.members()),
        })
        .collect();
    ValidationReport { per_composite }
}

/// A pair of composite tasks whose view-level and workflow-level
/// connectivity disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DependencyMismatch {
    /// Source composite task.
    pub from: CompositeTaskId,
    /// Target composite task.
    pub to: CompositeTaskId,
}

/// Result of checking Definition 2.1 directly.
#[derive(Debug, Clone)]
pub struct DefinitionReport {
    /// Composite pairs connected in the view but not in the workflow —
    /// *spurious* dependencies that would mislead provenance analysis
    /// (e.g. composite 14 → 18 in the paper's Figure 1).
    pub spurious: Vec<DependencyMismatch>,
    /// Composite pairs connected in the workflow but not in the view —
    /// *missing* dependencies. These cannot occur for views that preserve
    /// all inter-composite edges, but imported views are checked anyway.
    pub missing: Vec<DependencyMismatch>,
}

impl DefinitionReport {
    /// `true` iff view-level and workflow-level connectivity agree exactly.
    #[must_use]
    pub fn is_sound(&self) -> bool {
        self.spurious.is_empty() && self.missing.is_empty()
    }
}

/// Validates a view against Definition 2.1 using polynomial reachability
/// computations: there must be a view-level path between two composite tasks
/// iff some pair of their members is connected in the workflow.
///
/// Both sides are projections of reachability onto composite labels (the
/// view-dependency model of Bao & Davidson): one pass over the workflow's
/// strongly connected components, sinks first, gives each component the
/// set of composites it reaches, and composite `a`'s *workflow row* is the
/// OR of its members' component rows — a component spanning several
/// composites sets every owning slot. The same pass over the induced view
/// graph, each node labelled by its own slot, gives each composite's *view
/// row*. Since a view partitions the tasks, a bit `b ≠ a` in the workflow
/// row is exactly "some member of `a` reaches a distinct member of `b`".
/// Per slot the two rows are XORed with bit `a` cleared; each set bit `b`
/// is spurious if the view row holds it and missing otherwise. Cost:
/// O((V+E)·C/64 + C²/64) word operations for V tasks, E dependencies and
/// C composites; no reachability matrix is built.
///
/// Both report vectors are ordered by source composite, then target, in
/// view order.
#[must_use]
pub fn validate_by_definition(spec: &WorkflowSpec, view: &WorkflowView) -> DefinitionReport {
    let composites: Vec<CompositeTaskId> = view.composite_ids().collect();
    let n = composites.len();
    let mut slot_of = vec![NO_LABEL; view.composite_slot_count()];
    for (slot, id) in composites.iter().enumerate() {
        slot_of[id.index()] = slot;
    }
    let csr = spec.csr_snapshot();
    let mut task_slot = vec![NO_LABEL; csr.node_bound()];
    for (id, composite) in view.composites() {
        for task in composite.members() {
            if let Some(label) = task_slot.get_mut(task.index()) {
                *label = slot_of[id.index()];
            }
        }
    }
    let mut induced_edges = Vec::new();
    for from in csr.node_ids() {
        for &to in csr.successors(from) {
            let (a, b) = (task_slot[from.index()], task_slot[to.index()]);
            if a != b && a != NO_LABEL && b != NO_LABEL {
                induced_edges.push((a, b));
            }
        }
    }
    let view_slot: Vec<usize> = (0..n).collect();
    let in_workflow = label_closure(&csr, &task_slot, n);
    let in_view = label_closure(&Csr::from_edge_list(n, &induced_edges), &view_slot, n);

    let stride = pad_words(n.div_ceil(64));
    let mut spurious = Vec::new();
    let mut missing = Vec::new();
    for (a, &from) in composites.iter().enumerate() {
        let view_row = &in_view[a * stride..(a + 1) * stride];
        let workflow_row = &in_workflow[a * stride..(a + 1) * stride];
        for (word, (&v, &w)) in view_row.iter().zip(workflow_row).enumerate() {
            let mut diff = v ^ w;
            if word == a / 64 {
                diff &= !(1u64 << (a % 64));
            }
            while diff != 0 {
                let bit = diff.trailing_zeros() as usize;
                diff &= diff - 1;
                let b = word * 64 + bit;
                let mismatch = DependencyMismatch {
                    from,
                    to: composites[b],
                };
                if v & (1u64 << bit) != 0 {
                    spurious.push(mismatch);
                } else {
                    missing.push(mismatch);
                }
            }
        }
    }
    DefinitionReport { spurious, missing }
}

/// Label of a node that belongs to no composite slot.
const NO_LABEL: usize = usize::MAX;

/// Projects the reflexive reachability of `csr` onto node labels: returns
/// `labels` rows of stride `pad_words(⌈labels / 64⌉)` where row `l` holds
/// every label reachable from some node labelled `l` (including `l`
/// itself). Nodes labelled [`NO_LABEL`] still carry paths through.
///
/// Tarjan emits components sinks first, so each component's row is final
/// once its own members' labels and its successor components' rows are
/// ORed in — no topological sort is needed.
fn label_closure(csr: &Csr, label_of: &[usize], labels: usize) -> Vec<u64> {
    let stride = pad_words(labels.div_ceil(64));
    let scc = strongly_connected_components_csr(csr);
    let mut comp_rows = vec![0u64; scc.len() * stride];
    for (comp, members) in scc.iter().enumerate() {
        let (done, rest) = comp_rows.split_at_mut(comp * stride);
        let row = &mut rest[..stride];
        for &node in members {
            let label = label_of[node.index()];
            if label != NO_LABEL {
                row[label / 64] |= 1u64 << (label % 64);
            }
            for &next in csr.successors(node) {
                let succ = scc.component_of[next.index()];
                if succ != comp {
                    or_into(row, &done[succ * stride..(succ + 1) * stride]);
                }
            }
        }
    }
    let mut rows = vec![0u64; labels * stride];
    for node in csr.node_ids() {
        let label = label_of[node.index()];
        if label != NO_LABEL {
            let comp = scc.component_of[node.index()];
            or_into(
                &mut rows[label * stride..(label + 1) * stride],
                &comp_rows[comp * stride..(comp + 1) * stride],
            );
        }
    }
    rows
}

/// Validates a view against Definition 2.1 by literally enumerating simple
/// paths (no transitive-closure data structures). Exponential in the worst
/// case; refuse large inputs with `None`.
///
/// `max_nodes` bounds the size of graphs this is willing to touch.
#[must_use]
pub fn validate_naive(
    spec: &WorkflowSpec,
    view: &WorkflowView,
    max_nodes: usize,
) -> Option<DefinitionReport> {
    if spec.task_count() > max_nodes {
        return None;
    }
    let induced = view.induced_graph(spec);
    let composites: Vec<CompositeTaskId> = view.composite_ids().collect();

    let mut spurious = Vec::new();
    let mut missing = Vec::new();
    for &a in &composites {
        for &b in &composites {
            if a == b {
                continue;
            }
            let in_view = match (induced.node_of(a), induced.node_of(b)) {
                (Some(na), Some(nb)) => path_exists_by_enumeration(&induced.graph, na, nb),
                _ => false,
            };
            let members_a: Vec<TaskId> = view
                .composite(a)
                .map(|c| c.members().iter().copied().collect())
                .unwrap_or_default();
            let members_b: Vec<TaskId> = view
                .composite(b)
                .map(|c| c.members().iter().copied().collect())
                .unwrap_or_default();
            let in_workflow = members_a.iter().any(|&t1| {
                members_b
                    .iter()
                    .any(|&t2| path_exists_by_enumeration(spec.graph(), t1, t2))
            });
            match (in_view, in_workflow) {
                (true, false) => spurious.push(DependencyMismatch { from: a, to: b }),
                (false, true) => missing.push(DependencyMismatch { from: a, to: b }),
                _ => {}
            }
        }
    }
    Some(DefinitionReport { spurious, missing })
}

/// Naive DFS path enumeration without memoisation — deliberately the
/// textbook-exponential procedure the paper warns about.
fn path_exists_by_enumeration<N, E>(
    graph: &wolves_graph::DiGraph<N, E>,
    from: wolves_graph::NodeId,
    to: wolves_graph::NodeId,
) -> bool {
    fn dfs<N, E>(
        graph: &wolves_graph::DiGraph<N, E>,
        current: wolves_graph::NodeId,
        to: wolves_graph::NodeId,
        on_path: &mut Vec<wolves_graph::NodeId>,
    ) -> bool {
        if current == to {
            return true;
        }
        // deliberately naive: the per-call collect (and the absence of any
        // memoisation) IS the E5 baseline — do not optimise this path
        for next in graph.successors(current).collect::<Vec<_>>() {
            if on_path.contains(&next) {
                continue;
            }
            on_path.push(next);
            if dfs(graph, next, to, on_path) {
                return true;
            }
            on_path.pop();
        }
        false
    }
    let mut on_path = vec![from];
    dfs(graph, from, to, &mut on_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolves_workflow::builder::ViewBuilder;
    use wolves_workflow::WorkflowBuilder;

    fn figure1() -> (WorkflowSpec, WorkflowView, Vec<TaskId>) {
        let mut b = WorkflowBuilder::new("phylogenomics");
        let names = [
            "Select entries",
            "Split entries",
            "Extract annotations",
            "Curate annotations",
            "Format annotations",
            "Extract sequences",
            "Create alignment",
            "Format alignment",
            "Check other annotations",
            "Process annotations",
            "Build phylo tree",
            "Display tree",
        ];
        let t: Vec<TaskId> = names.iter().map(|n| b.task(*n)).collect();
        for (from, to) in [
            (0, 1),
            (1, 2),
            (1, 5),
            (2, 3),
            (3, 4),
            (4, 10),
            (5, 6),
            (6, 7),
            (7, 10),
            (8, 9),
            (9, 10),
            (10, 11),
        ] {
            b.edge(t[from], t[to]).unwrap();
        }
        let spec = b.build().unwrap();
        let view = ViewBuilder::new(&spec, "figure1b")
            .group("13".to_owned(), vec![t[0], t[1]])
            .group("14".to_owned(), vec![t[2]])
            .group("15".to_owned(), vec![t[5]])
            .group("16".to_owned(), vec![t[3], t[6]])
            .group("17".to_owned(), vec![t[4]])
            .group("18".to_owned(), vec![t[7]])
            .group("19".to_owned(), vec![t[8], t[9], t[10], t[11]])
            .build()
            .unwrap();
        (spec, view, t)
    }

    #[test]
    fn figure1_view_is_unsound_because_of_composite_16() {
        let (spec, view, _) = figure1();
        let report = validate(&spec, &view);
        assert!(!report.is_sound());
        let unsound = report.unsound_composites();
        assert_eq!(unsound.len(), 1);
        let detail = report
            .reports()
            .iter()
            .find(|r| r.composite == unsound[0])
            .unwrap();
        assert_eq!(detail.name, "16");
        // T.in = T.out = {Curate annotations, Create alignment}; neither can
        // reach the other, so both ordered pairs are reported.
        assert_eq!(detail.verdict.witnesses.len(), 2);
    }

    #[test]
    fn figure1_definition_check_finds_the_spurious_14_to_18_dependency() {
        let (spec, view, t) = figure1();
        let report = validate_by_definition(&spec, &view);
        assert!(!report.is_sound());
        assert!(report.missing.is_empty());
        let c14 = view.composite_of(t[2]).unwrap();
        let c18 = view.composite_of(t[7]).unwrap();
        assert!(report.spurious.iter().any(|m| m.from == c14 && m.to == c18));
    }

    /// The pre-bitset-algebra semantics of `validate_by_definition`,
    /// reimplemented on plain BFS so the comparison is independent of the
    /// label projection: a quadratic task-pair loop for workflow-level
    /// connectivity, per-pair BFS for view-level connectivity.
    fn pairwise_reference(spec: &WorkflowSpec, view: &WorkflowView) -> DefinitionReport {
        use std::collections::BTreeSet;
        use wolves_graph::traversal::{reachable_set, Direction};
        let induced = view.induced_graph(spec);
        let composites: Vec<CompositeTaskId> = view.composite_ids().collect();
        let tasks: Vec<TaskId> = spec.task_ids().collect();
        let mut connected: BTreeSet<(CompositeTaskId, CompositeTaskId)> = BTreeSet::new();
        for &u in &tasks {
            let reach = reachable_set(spec.graph(), &[u], Direction::Forward);
            for &v in &tasks {
                if u == v || !reach.contains(v.index()) {
                    continue;
                }
                let (Some(cu), Some(cv)) = (view.composite_of(u), view.composite_of(v)) else {
                    continue;
                };
                if cu != cv {
                    connected.insert((cu, cv));
                }
            }
        }
        let mut spurious = Vec::new();
        let mut missing = Vec::new();
        for &a in &composites {
            for &b in &composites {
                if a == b {
                    continue;
                }
                let in_view = match (induced.node_of(a), induced.node_of(b)) {
                    (Some(na), Some(nb)) => {
                        reachable_set(&induced.graph, &[na], Direction::Forward)
                            .contains(nb.index())
                    }
                    _ => false,
                };
                let in_workflow = connected.contains(&(a, b));
                match (in_view, in_workflow) {
                    (true, false) => spurious.push(DependencyMismatch { from: a, to: b }),
                    (false, true) => missing.push(DependencyMismatch { from: a, to: b }),
                    _ => {}
                }
            }
        }
        DefinitionReport { spurious, missing }
    }

    /// Runs the definition check and asserts it reports exactly what
    /// [`pairwise_reference`] reports, in the same order.
    fn checked_definition_report(spec: &WorkflowSpec, view: &WorkflowView) -> DefinitionReport {
        let fast = validate_by_definition(spec, view);
        let reference = pairwise_reference(spec, view);
        assert_eq!(fast.spurious, reference.spurious);
        assert_eq!(fast.missing, reference.missing);
        fast
    }

    #[test]
    fn definition_check_tracks_an_edit_loop() {
        use wolves_workflow::SpecMutation;
        let (mut spec, view, t) = figure1();
        let baseline = checked_definition_report(&spec, &view);
        assert_eq!(baseline.spurious.len(), 2);

        let c14 = view.composite_of(t[2]).unwrap();
        let c18 = view.composite_of(t[7]).unwrap();
        let has_14_to_18 = |report: &DefinitionReport| {
            report.spurious.iter().any(|m| m.from == c14 && m.to == c18)
        };
        assert!(has_14_to_18(&baseline));

        // the user repairs the workflow instead of the view: connecting
        // Curate annotations -> Create alignment realises the 14 -> 18 path
        spec.apply(SpecMutation::AddDependency {
            from: t[3],
            to: t[6],
        })
        .unwrap();
        let repaired = checked_definition_report(&spec, &view);
        assert!(!has_14_to_18(&repaired));
        // the unrelated 15 -> 17 spurious dependency is still reported
        assert_eq!(repaired.spurious.len(), 1);

        // undoing the edit brings the spurious dependency back
        spec.apply(SpecMutation::RemoveDependency {
            from: t[3],
            to: t[6],
        })
        .unwrap();
        let reverted = checked_definition_report(&spec, &view);
        assert!(has_14_to_18(&reverted));
        assert_eq!(reverted.spurious, baseline.spurious);
    }

    #[test]
    fn definition_check_follows_membership_only_view_edits() {
        use wolves_workflow::{AtomicTask, DataDependency};
        // t0, t1, t2 with the single edge t1 -> t2; view {t0, t1} | {t2}
        let mut spec = WorkflowSpec::new("membership");
        let t: Vec<TaskId> = (0..3)
            .map(|i| spec.add_task(AtomicTask::new(format!("t{i}"))).unwrap())
            .collect();
        spec.add_dependency(t[1], t[2], DataDependency::unnamed())
            .unwrap();
        let mut view = WorkflowView::from_groups(
            &spec,
            "v",
            vec![("ab".into(), vec![t[0], t[1]]), ("c".into(), vec![t[2]])],
        )
        .unwrap();
        assert!(checked_definition_report(&spec, &view).is_sound());
        // dropping t1 from 'ab' keeps the composite-id set identical but
        // removes the only member that connected ab -> c
        view.remove_member(t[1]).unwrap();
        let report = checked_definition_report(&spec, &view);
        assert!(report.is_sound());
    }

    #[test]
    fn cycles_spanning_composites_connect_both_ways_without_self_pairs() {
        use wolves_workflow::{AtomicTask, DataDependency};
        let mut spec = WorkflowSpec::new("cyclic");
        let t: Vec<TaskId> = (0..8)
            .map(|i| spec.add_task(AtomicTask::new(format!("t{i}"))).unwrap())
            .collect();
        // SCC {t0, t1} spans composites A and B; SCC {t3, t4} lies inside C
        for (from, to) in [
            (0, 1),
            (1, 0),
            (1, 3),
            (3, 4),
            (4, 3),
            (4, 5),
            (5, 6),
            (7, 2),
        ] {
            spec.add_dependency(t[from], t[to], DataDependency::unnamed())
                .unwrap();
        }
        let view = WorkflowView::from_groups(
            &spec,
            "v",
            vec![
                ("A".into(), vec![t[0], t[2]]),
                ("B".into(), vec![t[1]]),
                ("C".into(), vec![t[3], t[4]]),
                ("D".into(), vec![t[5]]),
                ("E".into(), vec![t[6], t[7]]),
            ],
        )
        .unwrap();
        let report = checked_definition_report(&spec, &view);
        let naive = validate_naive(&spec, &view, 64).unwrap();
        assert_eq!(report.spurious, naive.spurious);
        assert_eq!(report.missing, naive.missing);

        let [a, b, c, d, e] =
            [t[0], t[1], t[3], t[5], t[6]].map(|task| view.composite_of(task).unwrap());
        // the view closes one big cycle, but the workflow never leaves C, D
        // or E backwards except through E -> A
        let expected: Vec<DependencyMismatch> = [
            (c, a),
            (c, b),
            (d, a),
            (d, b),
            (d, c),
            (e, b),
            (e, c),
            (e, d),
        ]
        .into_iter()
        .map(|(from, to)| DependencyMismatch { from, to })
        .collect();
        assert_eq!(report.spurious, expected);
        assert!(report.missing.is_empty());
    }

    #[test]
    fn singleton_views_are_sound_under_all_checks() {
        let (spec, _, _) = figure1();
        let view = WorkflowView::singletons(&spec, "fine");
        assert!(validate(&spec, &view).is_sound());
        assert!(validate_by_definition(&spec, &view).is_sound());
        assert!(validate_naive(&spec, &view, 64).unwrap().is_sound());
    }

    #[test]
    fn naive_check_agrees_with_polynomial_definition_check() {
        let (spec, view, _) = figure1();
        let poly = validate_by_definition(&spec, &view);
        let naive = validate_naive(&spec, &view, 64).unwrap();
        assert_eq!(poly.is_sound(), naive.is_sound());
        assert_eq!(poly.spurious.len(), naive.spurious.len());
        assert_eq!(poly.missing.len(), naive.missing.len());
    }

    #[test]
    fn naive_check_refuses_oversized_inputs() {
        let (spec, view, _) = figure1();
        assert!(validate_naive(&spec, &view, 4).is_none());
    }

    #[test]
    fn proposition_2_1_soundness_implies_definition_soundness() {
        // the corrected Figure 1 view must be sound under both checks
        let (spec, view, _) = figure1();
        let (corrected, _) =
            crate::correct::correct_view(&spec, &view, &crate::correct::StrongCorrector::new())
                .unwrap();
        let prop = validate(&spec, &corrected);
        assert!(prop.is_sound());
        assert!(validate_by_definition(&spec, &corrected).is_sound());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use wolves_workflow::{AtomicTask, DataDependency};

        /// Arbitrary specs (DAG when `cyclic` is false, back edges permitted
        /// when true) with an arbitrary partition into composite tasks.
        fn arbitrary_spec_and_view(
            max_nodes: usize,
            cyclic: bool,
        ) -> impl Strategy<Value = (WorkflowSpec, WorkflowView)> {
            (3..max_nodes)
                .prop_flat_map(move |n| {
                    let edges = proptest::collection::vec((0..n, 0..n), 0..(n * 2));
                    let slots = proptest::collection::vec(0..n.div_ceil(2), n..(n + 1));
                    (Just(n), edges, slots)
                })
                .prop_map(move |(n, raw_edges, slots)| {
                    let mut spec = WorkflowSpec::new("prop");
                    let ids: Vec<TaskId> = (0..n)
                        .map(|i| spec.add_task(AtomicTask::new(format!("t{i}"))).unwrap())
                        .collect();
                    for (a, b) in raw_edges {
                        let (from, to) = if cyclic {
                            (a, b)
                        } else {
                            // orient low → high to guarantee a DAG
                            if a < b {
                                (a, b)
                            } else {
                                (b, a)
                            }
                        };
                        if from != to {
                            let _ =
                                spec.add_dependency(ids[from], ids[to], DataDependency::unnamed());
                        }
                    }
                    let slot_count = slots.iter().copied().max().unwrap_or(0) + 1;
                    let mut buckets: Vec<Vec<TaskId>> = vec![Vec::new(); slot_count];
                    for (task, &slot) in ids.iter().zip(&slots) {
                        buckets[slot].push(*task);
                    }
                    let groups: Vec<(String, Vec<TaskId>)> = buckets
                        .into_iter()
                        .filter(|bucket| !bucket.is_empty())
                        .enumerate()
                        .map(|(index, bucket)| (format!("g{index}"), bucket))
                        .collect();
                    let view = WorkflowView::from_groups(&spec, "prop-view", groups)
                        .expect("buckets partition the tasks");
                    (spec, view)
                })
        }

        /// Drives a random edit script and checks the definition check
        /// against [`pairwise_reference`] after every step. Besides adding
        /// and removing dependencies (on cyclic specs these merge and split
        /// SCCs), scripts remove tasks from the spec and the view together
        /// and remove members from the view alone, so they produce
        /// tombstoned task slots and emptied composites.
        fn assert_edit_script_matches_pairwise(
            spec: &mut WorkflowSpec,
            view: &mut WorkflowView,
            ops: Vec<(usize, usize, usize)>,
        ) {
            use wolves_workflow::SpecMutation;
            checked_definition_report(spec, view);
            for (op, raw_a, raw_b) in ops {
                let tasks: Vec<TaskId> = spec.task_ids().collect();
                if tasks.len() < 4 {
                    break;
                }
                let from = tasks[raw_a % tasks.len()];
                let to = tasks[raw_b % tasks.len()];
                match op % 6 {
                    0 => {
                        if spec
                            .apply(SpecMutation::RemoveDependency { from, to })
                            .is_err()
                        {
                            continue;
                        }
                    }
                    4 => {
                        // spec-level task removal, tracked in the view
                        if spec.apply(SpecMutation::RemoveTask { task: from }).is_err() {
                            continue;
                        }
                        let _ = view.remove_member(from);
                    }
                    5 => {
                        // membership-only view edit (no spec change)
                        if view.remove_member(from).is_err() {
                            continue;
                        }
                    }
                    _ => {
                        if from == to
                            || spec
                                .apply(SpecMutation::AddDependency { from, to })
                                .is_err()
                        {
                            continue;
                        }
                    }
                }
                checked_definition_report(spec, view);
            }
        }

        proptest! {
            #[test]
            fn prop_bitset_algebra_matches_pairwise_on_dags(
                (spec, view) in arbitrary_spec_and_view(14, false)
            ) {
                checked_definition_report(&spec, &view);
            }

            #[test]
            fn prop_bitset_algebra_matches_pairwise_on_cyclic_specs(
                (spec, view) in arbitrary_spec_and_view(12, true)
            ) {
                checked_definition_report(&spec, &view);
            }

            #[test]
            fn prop_edit_scripts_match_pairwise_on_dags(
                (spec, view) in arbitrary_spec_and_view(12, false),
                ops in proptest::collection::vec((0usize..6, 0usize..32, 0usize..32), 1..24)
            ) {
                let (mut spec, mut view) = (spec, view);
                assert_edit_script_matches_pairwise(&mut spec, &mut view, ops);
            }

            #[test]
            fn prop_edit_scripts_match_pairwise_on_cyclic_specs(
                (spec, view) in arbitrary_spec_and_view(10, true),
                ops in proptest::collection::vec((0usize..6, 0usize..32, 0usize..32), 1..24)
            ) {
                let (mut spec, mut view) = (spec, view);
                assert_edit_script_matches_pairwise(&mut spec, &mut view, ops);
            }

            #[test]
            fn prop_proposition_2_1_never_accepts_what_the_definition_rejects(
                (spec, view) in arbitrary_spec_and_view(12, false)
            ) {
                // Proposition 2.1 soundness ⇒ Definition 2.1 soundness
                if validate(&spec, &view).is_sound() {
                    prop_assert!(validate_by_definition(&spec, &view).is_sound());
                }
            }
        }
    }
}
