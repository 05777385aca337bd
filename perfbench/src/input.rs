//! Seeded workload inputs and the answers the served program must give,
//! computed in-process by the engine before anything is served.

use std::collections::BTreeSet;

use wolves_core::validate::validate;
use wolves_moml::write_text_format;
use wolves_provenance::query::ViewProvenanceIndex;
use wolves_repo::{layered_workflow, topological_block_view, LayeredConfig};
use wolves_service::MutateOp;
use wolves_workflow::{TaskId, WorkflowSpec, WorkflowView};

use crate::util::Rng;

/// Block size of every layered view: blocks straddle parallel branches, so
/// many composites are unsound, as in carelessly drawn user views.
pub const BLOCK: usize = 4;

pub struct Subject {
    pub task: TaskId,
    pub name: String,
    /// View-level provenance as task names.
    pub expected: BTreeSet<String>,
}

pub struct Input {
    pub spec: WorkflowSpec,
    pub view: WorkflowView,
    /// The workflow and view in the native text format, as a user uploads it.
    pub text: String,
    /// Names of the unsound composites of the unedited workflow.
    pub expected_unsound: BTreeSet<String>,
    pub subjects: Vec<Subject>,
    /// Every dependency, in spec order: the pool edits draw from.
    pub edges: Vec<(TaskId, TaskId)>,
}

impl Input {
    /// A layered workflow of about `tasks` tasks with a block view, and
    /// `subjects` seeded provenance subjects.
    pub fn layered(tasks: usize, seed: u64, subjects: usize) -> Self {
        let spec = layered_workflow(&LayeredConfig::sized(tasks), seed);
        let view = topological_block_view(&spec, BLOCK, "blocks").expect("layered spec is a DAG");
        Self::new(spec, view, subjects, seed)
    }

    pub fn new(spec: WorkflowSpec, view: WorkflowView, subjects: usize, seed: u64) -> Self {
        let text = write_text_format(&spec, Some(&view));
        let expected_unsound = unsound_names(&spec, &view);
        let index = ViewProvenanceIndex::new(&spec, &view);
        // one subject per equal slice of the topological order: a subject's
        // answer grows with its depth, so random picks would make the cost
        // of a batch of queries swing from seed to seed
        let order = spec
            .topological_order()
            .unwrap_or_else(|_| spec.task_ids().collect());
        let count = subjects.min(order.len());
        let mut rng = Rng::new(seed ^ 0x005B_1EC7);
        let subjects = (0..count)
            .map(|k| {
                let (lo, hi) = (k * order.len() / count, (k + 1) * order.len() / count);
                let task = order[lo + rng.below(hi - lo)];
                Subject {
                    task,
                    name: spec.task(task).expect("live task").name.clone(),
                    expected: names(&spec, &index.provenance(&view, task).tasks),
                }
            })
            .collect();
        let edges = spec.dependencies().collect();
        Input {
            spec,
            view,
            text,
            expected_unsound,
            subjects,
            edges,
        }
    }

    pub fn name_of(&self, task: TaskId) -> String {
        self.spec.task(task).expect("live task").name.clone()
    }

    /// The wire edits that remove the dependency `from -> to` and put it
    /// back.
    pub fn edit_ops(&self, (from, to): (TaskId, TaskId)) -> (MutateOp, MutateOp) {
        let (from, to) = (self.name_of(from), self.name_of(to));
        let remove = MutateOp::RemoveEdge {
            from: from.clone(),
            to: to.clone(),
        };
        (remove, MutateOp::AddEdge { from, to })
    }

    /// A seeded edge script: `count` dependencies to remove and put back.
    pub fn edge_script(&self, count: usize, rng: &mut Rng) -> Vec<(TaskId, TaskId)> {
        (0..count)
            .map(|_| self.edges[rng.below(self.edges.len())])
            .collect()
    }
}

pub fn unsound_names(spec: &WorkflowSpec, view: &WorkflowView) -> BTreeSet<String> {
    validate(spec, view)
        .reports()
        .iter()
        .filter(|r| !r.verdict.is_sound())
        .map(|r| r.name.clone())
        .collect()
}

pub fn names(spec: &WorkflowSpec, tasks: &BTreeSet<TaskId>) -> BTreeSet<String> {
    tasks
        .iter()
        .map(|&t| spec.task(t).expect("live task").name.clone())
        .collect()
}
