//! The `wire` layer: an in-process server on a store, one closed-loop
//! client connection, and timed calls that — when tracing — split each
//! round trip into the store's own time (read from its per-verb latency
//! histogram) and the rest (parse, render, socket, dispatch).

use std::sync::Arc;
use std::time::Instant;

use wolves_service::proto::encode_frame;
use wolves_service::{
    serve_with_store, MutateOp, Request, Response, ServerConfig, ServerHandle, ServiceClient,
    ServiceError, Verb, WorkflowId, WorkflowStore,
};
use wolves_workflow::TaskId;

use crate::input::{Input, Subject};
use crate::trace::{SpanId, Tracer};
use crate::util::{Checker, Report, Samples};

/// Worker threads of the served store: the host has two cores.
const WORKERS: usize = 2;

pub struct Served {
    store: Arc<WorkflowStore>,
    handle: Option<ServerHandle>,
    client: Option<ServiceClient>,
}

impl Served {
    pub fn start(store: WorkflowStore) -> Result<Self, ServiceError> {
        let store = Arc::new(store);
        let config = ServerConfig {
            shards: store.shard_count(),
            workers: WORKERS,
            ..Default::default()
        };
        let handle = serve_with_store(&config, Arc::clone(&store))
            .map_err(|e| ServiceError::Persistence(format!("cannot start server: {e}")))?;
        let client = ServiceClient::connect(handle.local_addr())?;
        Ok(Served {
            store,
            handle: Some(handle),
            client: Some(client),
        })
    }

    pub fn store(&self) -> &WorkflowStore {
        &self.store
    }

    pub fn client(&mut self) -> &mut ServiceClient {
        self.client.as_mut().expect("client lives until stop")
    }

    /// Closes the connection, stops the server and returns the store.
    pub fn stop(mut self) -> Arc<WorkflowStore> {
        self.shutdown();
        Arc::clone(&self.store)
    }

    fn shutdown(&mut self) {
        // the connection pins a worker until it closes, so close it first
        self.client = None;
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The three verbs the workloads time.
#[derive(Clone, Copy)]
pub enum Op {
    Mutate,
    Validate,
    Provenance,
}

impl Op {
    pub const ALL: [Op; 3] = [Op::Mutate, Op::Validate, Op::Provenance];

    pub fn name(self) -> &'static str {
        match self {
            Op::Mutate => "mutate",
            Op::Validate => "validate",
            Op::Provenance => "provenance",
        }
    }

    fn verb(self) -> Verb {
        match self {
            Op::Mutate => Verb::Mutate,
            Op::Validate => Verb::Validate,
            Op::Provenance => Verb::Provenance,
        }
    }

    fn spans(self) -> (&'static str, &'static str) {
        match self {
            Op::Mutate => ("wire.mutate", "store.mutate"),
            Op::Validate => ("wire.validate", "store.validate"),
            Op::Provenance => ("wire.provenance", "store.provenance"),
        }
    }

    pub fn request(self, workflow: WorkflowId, subject: &str) -> Request {
        match self {
            Op::Validate => Request::Validate {
                workflow,
                version: None,
            },
            Op::Provenance => Request::Provenance {
                workflow,
                subject: subject.to_owned(),
            },
            Op::Mutate => unreachable!("mutations carry their own op"),
        }
    }
}

/// Per-verb split of traced round trips.
#[derive(Default)]
pub struct WireStats {
    client: [Samples; 3],
    store: [Samples; 3],
    overhead: [Samples; 3],
    response_bytes: [u64; 3],
}

impl WireStats {
    pub fn has(&self, op: Op) -> bool {
        !self.client[op as usize].is_empty()
    }

    /// `wire.*` metrics and the wire-over-store ratios.
    pub fn report(&self, report: &mut Report) {
        let mut overhead_ns = 0.0;
        let mut client_ns = 0.0;
        for op in Op::ALL {
            let i = op as usize;
            let n = self.client[i].len();
            let verb = op.name();
            report.metric(
                format!("wire.overhead_us.{verb}"),
                self.overhead[i].p50_us(),
                "us",
            );
            report.metric(
                format!("wire.store_side_us.{verb}"),
                self.store[i].p50_us(),
                "us",
            );
            report.metric(
                format!("wire.response_bytes.{verb}"),
                self.response_bytes[i] as f64 / n.max(1) as f64,
                "bytes",
            );
            report.metric(
                format!("ratio.wire_over_store.{verb}"),
                self.client[i].p50_us() / self.store[i].p50_us(),
                "ratio",
            );
            report.samples.insert(format!("wire.{verb}"), n as u64);
            overhead_ns += self.overhead[i].mean_us() * n as f64;
            client_ns += self.client[i].mean_us() * n as f64;
        }
        report.metric("trace.unexplained_share", overhead_ns / client_ns, "ratio");
    }
}

/// One timed round trip. `latency` receives the client-side duration. When
/// tracing, the call becomes a `wire.<verb>` span under `parent` with a
/// derived `store.<verb>` child, and `stats` gets the split.
#[allow(clippy::too_many_arguments)]
pub fn call(
    served: &mut Served,
    op: Op,
    request: &Request,
    latency: &mut Samples,
    tracer: &mut Tracer,
    stats: &mut WireStats,
    parent: Option<SpanId>,
    request_id: u64,
) -> Result<Response, ServiceError> {
    if !tracer.enabled() {
        let start = Instant::now();
        let response = served.client().call(request);
        latency.push(start.elapsed());
        return response;
    }
    let before = served.store().verb_histogram(op.verb());
    let start = Instant::now();
    let response = served.client().call(request);
    let end = Instant::now();
    let after = served.store().verb_histogram(op.verb());
    let client_ns = u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
    latency.push_ns(client_ns);
    let (wire_name, store_name) = op.spans();
    let span = tracer.record(wire_name, start, end, parent, request_id);
    if after.count() == before.count() + 1 {
        let store_ns = after.sum - before.sum;
        if let Some(span) = span {
            tracer.record_derived(store_name, store_ns, span);
        }
        let i = op as usize;
        stats.client[i].push_ns(client_ns);
        stats.store[i].push_ns(store_ns);
        stats.overhead[i].push_ns(client_ns.saturating_sub(store_ns));
        if let Ok(response) = &response {
            let mut frame = String::new();
            encode_frame(&mut frame, &response.to_lines());
            stats.response_bytes[i] += frame.len() as u64;
        }
    }
    response
}

/// A closed-loop client session: the served store and its one connection.
pub struct Session {
    pub served: Served,
    pub stats: WireStats,
    /// Calls that returned a response (right or wrong).
    pub completed: u64,
}

impl Session {
    pub fn new(served: Served) -> Self {
        Session {
            served,
            stats: WireStats::default(),
            completed: 0,
        }
    }

    /// One timed call, its latency into `latency`, its response judged by
    /// `check`.
    #[allow(clippy::too_many_arguments)]
    pub fn ask(
        &mut self,
        tracer: &mut Tracer,
        checker: &mut Checker,
        latency: &mut Samples,
        op: Op,
        request: &Request,
        parent: Option<SpanId>,
        request_id: u64,
        what: &str,
        check: impl FnOnce(Response) -> bool,
    ) {
        let response = call(
            &mut self.served,
            op,
            request,
            latency,
            tracer,
            &mut self.stats,
            parent,
            request_id,
        );
        if response.is_ok() {
            self.completed += 1;
        }
        checker.check(what, response.map(check));
    }
}

/// Latency samples of edit rounds, by call.
#[derive(Default)]
pub struct RoundSamples {
    pub mutate: Samples,
    /// The validate between the removal and the re-insert.
    pub mid_validate: Samples,
    /// The validate after the pair, whose verdict must be the unedited one.
    pub validate: Samples,
    pub provenance: Samples,
}

impl RoundSamples {
    pub fn extend(&mut self, other: &RoundSamples) {
        self.mutate.extend(&other.mutate);
        self.mid_validate.extend(&other.mid_validate);
        self.validate.extend(&other.validate);
        self.provenance.extend(&other.provenance);
    }
}

impl Session {
    /// One edit round, a `round` span over its calls: remove the dependency
    /// `from -> to`, validate, put it back, validate (the verdict must be
    /// the unedited one), then ask the provenance of `subject`.
    #[allow(clippy::too_many_arguments)]
    pub fn edit_round(
        &mut self,
        tracer: &mut Tracer,
        checker: &mut Checker,
        samples: &mut RoundSamples,
        input: &Input,
        id: WorkflowId,
        edge: (TaskId, TaskId),
        subject: &Subject,
        round: u64,
    ) {
        let (remove, add) = input.edit_ops(edge);
        let (remove, add) = (mutate_request(id, remove), mutate_request(id, add));
        let validate = Op::Validate.request(id, "");
        let root = tracer.open("round", round);
        let (t, c) = (&mut *tracer, checker);
        let s = samples;
        self.ask(
            t,
            c,
            &mut s.mutate,
            Op::Mutate,
            &remove,
            root,
            round,
            "remove-edge",
            is_mutated,
        );
        let what = "validate after remove";
        self.ask(
            t,
            c,
            &mut s.mid_validate,
            Op::Validate,
            &validate,
            root,
            round,
            what,
            is_verdict,
        );
        self.ask(
            t,
            c,
            &mut s.mutate,
            Op::Mutate,
            &add,
            root,
            round,
            "add-edge",
            is_mutated,
        );
        let what = "verdict after remove/add equals the unedited verdict";
        let expected = verdict_is(&input.expected_unsound);
        self.ask(
            t,
            c,
            &mut s.validate,
            Op::Validate,
            &validate,
            root,
            round,
            what,
            expected,
        );
        let provenance = Op::Provenance.request(id, &subject.name);
        let expected = provenance_is(&subject.expected);
        let what = "provenance answer";
        self.ask(
            t,
            c,
            &mut s.provenance,
            Op::Provenance,
            &provenance,
            root,
            round,
            what,
            expected,
        );
        tracer.close(root);
    }
}

pub fn mutate_request(workflow: WorkflowId, op: MutateOp) -> Request {
    Request::Mutate {
        workflow,
        op,
        expect: None,
    }
}

pub fn is_mutated(response: Response) -> bool {
    matches!(response, Response::Mutated(_))
}

/// A verdict whose unsound composites are exactly `expected`.
pub fn verdict_is(
    expected: &std::collections::BTreeSet<String>,
) -> impl FnOnce(Response) -> bool + '_ {
    move |response| match response {
        Response::Verdict(v) => {
            v.unsound
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                == *expected
        }
        _ => false,
    }
}

pub fn is_verdict(response: Response) -> bool {
    matches!(response, Response::Verdict(_))
}

/// A provenance answer naming exactly `expected`.
pub fn provenance_is(
    expected: &std::collections::BTreeSet<String>,
) -> impl FnOnce(Response) -> bool + '_ {
    move |response| match response {
        Response::Provenance(names) => {
            names.into_iter().collect::<std::collections::BTreeSet<_>>() == *expected
        }
        _ => false,
    }
}
