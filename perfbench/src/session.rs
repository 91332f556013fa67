//! One round of any workload: set-up, the plan phase, the serving tape,
//! recovery, and the checks.
//!
//! Every workload runs the whole system, the way one deployment uses it:
//! a workflow owner plans a hidden set (`crate::plan`), and clients probe
//! and ingest provenance through the serving tier, many tenants behind
//! one `Server` backed by `Server::with_ingest_sink(DurableRegistry)`,
//! served by a `SocketServer` with one acceptor to one `SocketTransport`
//! client on a single connection (closed loop: the next frame is sent
//! when the previous answer is back). After the tape the server stops
//! and the data directory is recovered, several times, each from a
//! pristine copy. The workloads differ in which phase dominates:
//!
//! * `plan` plans a 6-module `k = 20` chain; its serving tape and
//!   recoveries are small.
//! * `serve_read` sends probe frames drawn from a small per-module view
//!   pool that the warm-up pass (part of set-up) fully memoizes, and only
//!   then a short tail of ingest frames. The kernel does almost nothing
//!   while it probes; wire, admission, tenant lock, memo hit and socket
//!   dominate. Its plans are small.
//! * `serve_mixed` interleaves probe frames with ingest frames carrying
//!   rows the tenants do not hold yet, so epochs advance and memo entries
//!   go stale. Its view pool is wider. Its plans are small.
//!
//! Every probe answer is compared with `WorkflowOracles::probe_batch`
//! on a replica that has seen the same ingests; every ingest receipt
//! with the replica's rows added and epochs; every recovery with the
//! live epochs and answers.

use crate::plan::{self, PlanInputs, PlanShape};
use crate::report::{mean, median, peak_rss_mb, quantile, reset_peak_rss, Report};
use crate::trace::{SpanId, Tracer};
use crate::RunConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use sv_core::safety::{IngestBatch, ProbeOutcome, ProbeRequest, WorkflowOracles};
use sv_core::wire::{ModuleEpoch, Request, Response};
use sv_durable::{DurableRegistry, TenantDef, LOG_FILE, SNAPSHOT_FILE};
use sv_relation::{AttrSet, Tuple, Value};
use sv_serve::{
    AdmissionLimits, Client, Connection, IngestSink, Server, SocketServer, SocketTransport,
    TenantConfig, TenantId, TenantRegistry, Transport,
};
use sv_workflow::{library, ModuleId, Workflow};

/// The shape of a workload; the seed fills it in.
pub struct Shape {
    pub plan: PlanShape,
    tenants: u64,
    /// Boolean wires per module side: `2^wires` possible executions.
    wires: usize,
    /// Executions each tenant holds after set-up.
    initial_rows: usize,
    /// Visible sets in each module's view pool.
    views: usize,
    /// Probe frames at the start of the tape, before any ingest.
    probe_frames: usize,
    /// Ingest frames on the tape, each of rows no tenant holds yet.
    ingest_frames: usize,
    /// Rows per ingest frame.
    rows_per_ingest: usize,
    /// Probe frames before each ingest frame.
    probes_per_ingest: usize,
    /// Recoveries of the final data directory per round.
    recoveries: usize,
}

/// A 6-module `k = 20` chain to plan; a small serving tier. Γ
/// alternates 16 and 32, so each module's minimal safe hidden sets sit 4
/// or 5 layers up the lattice and the sweep walks several layers deep.
pub const PLAN: Shape = Shape {
    plan: PlanShape {
        modules: 6,
        wires: 10,
        gammas: &[16, 32],
        reps: 1,
    },
    tenants: 64,
    wires: 4,
    initial_rows: 12,
    views: 6,
    probe_frames: 4096,
    ingest_frames: 256,
    rows_per_ingest: 1,
    probes_per_ingest: 2,
    recoveries: 21,
};

/// Many small tenants, probed from a memoized pool; a short ingest tail.
pub const READ: Shape = Shape {
    plan: PlanShape {
        modules: 2,
        wires: 8,
        gammas: &[8],
        reps: 8,
    },
    tenants: 512,
    wires: 4,
    initial_rows: 12,
    views: 6,
    probe_frames: 8192,
    ingest_frames: 512,
    rows_per_ingest: 2,
    probes_per_ingest: 0,
    recoveries: 5,
};

/// Fewer, larger tenants; durable ingest of every execution the
/// tenants do not hold yet, interleaved with probes.
pub const MIXED: Shape = Shape {
    plan: PlanShape {
        modules: 3,
        wires: 8,
        gammas: &[16, 8],
        reps: 8,
    },
    tenants: 64,
    wires: 6,
    initial_rows: 16,
    views: 24,
    probe_frames: 0,
    ingest_frames: 1536,
    rows_per_ingest: 2,
    probes_per_ingest: 3,
    recoveries: 5,
};

/// Private modules per tenant workflow (a one-one chain).
const CHAIN: usize = 2;
/// Probes per probe frame.
const BATCH: usize = 32;
/// Γ values the view pools draw from.
const GAMMAS: [u128; 4] = [2, 4, 8, 16];

/// The socket and directories, relative to the run directory.
const SOCKET: &str = "sock";
const DATA_DIR: &str = "data";
const TWIN_DIR: &str = "twin";
const RECOVER_DIR: &str = "recover";

enum Frame {
    Probe {
        tenant: u64,
        probes: Vec<ProbeRequest>,
    },
    Ingest {
        tenant: u64,
        rows: Vec<Vec<Value>>,
    },
}

/// Everything the seed decides.
struct Inputs {
    plan: PlanInputs,
    workflow: Workflow,
    /// Set-up ingest frames: one per tenant, its initial executions.
    load: Vec<Frame>,
    /// Per tenant (index `id − 1`): its view pool.
    pools: Vec<Vec<ProbeRequest>>,
    /// Set-up probe frames covering every pool entry.
    warmup: Vec<Frame>,
    tape: Vec<Frame>,
}

impl Inputs {
    fn setup_frames(&self) -> impl Iterator<Item = &Frame> {
        self.load.iter().chain(&self.warmup)
    }
}

/// The plan instance draws from the seed itself, the serving tier from
/// a second stream derived from it.
fn generate(shape: &Shape, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e55_10d5_5e55_10d5);
    let workflow = library::one_one_chain(CHAIN, shape.wires);
    let k = 2 * shape.wires;
    let mut load = Vec::new();
    let mut pending = Vec::new();
    let mut pools = Vec::new();
    for _ in 0..shape.tenants {
        let mut inputs: Vec<u32> = (0..1u32 << shape.wires).collect();
        for i in (1..inputs.len()).rev() {
            inputs.swap(i, rng.gen_range(0..i + 1));
        }
        let rows: Vec<Vec<Value>> = inputs
            .iter()
            .map(|&bits| {
                let input: Vec<Value> = (0..shape.wires).map(|w| (bits >> w) & 1).collect();
                workflow
                    .run(&input)
                    .expect("boolean input")
                    .values()
                    .to_vec()
            })
            .collect();
        load.push(Frame::Ingest {
            tenant: load.len() as u64 + 1,
            rows: rows[..shape.initial_rows].to_vec(),
        });
        pending.push(rows[shape.initial_rows..].to_vec());
        pools.push(
            (0..CHAIN)
                .flat_map(|m| (0..shape.views).map(move |_| m))
                .map(|m| {
                    ProbeRequest::new(
                        ModuleId(m as u32),
                        AttrSet::from_word(rng.gen_range(0..1u64 << k)),
                        GAMMAS[rng.gen_range(0..GAMMAS.len())],
                    )
                })
                .collect::<Vec<_>>(),
        );
    }
    let warmup = pools
        .iter()
        .enumerate()
        .flat_map(|(t, pool)| {
            pool.chunks(BATCH).map(move |c| Frame::Probe {
                tenant: t as u64 + 1,
                probes: c.to_vec(),
            })
        })
        .collect();
    let probe_frame = |rng: &mut StdRng| {
        let tenant = rng.gen_range(1..=shape.tenants);
        let pool = &pools[tenant as usize - 1];
        Frame::Probe {
            tenant,
            probes: (0..BATCH)
                .map(|_| pool[rng.gen_range(0..pool.len())].clone())
                .collect(),
        }
    };
    let mut tape = Vec::new();
    for _ in 0..shape.probe_frames {
        tape.push(probe_frame(&mut rng));
    }
    let mut ingests: Vec<Frame> = pending
        .iter()
        .enumerate()
        .flat_map(|(t, rows)| {
            rows.chunks(shape.rows_per_ingest)
                .map(move |c| Frame::Ingest {
                    tenant: t as u64 + 1,
                    rows: c.to_vec(),
                })
        })
        .collect();
    assert!(
        ingests.len() >= shape.ingest_frames,
        "enough unseen executions for the ingest frames"
    );
    for i in (1..ingests.len()).rev() {
        ingests.swap(i, rng.gen_range(0..i + 1));
    }
    for ingest in ingests.into_iter().take(shape.ingest_frames) {
        for _ in 0..shape.probes_per_ingest {
            tape.push(probe_frame(&mut rng));
        }
        tape.push(ingest);
    }
    Inputs {
        plan: plan::generate(&shape.plan, seed),
        workflow,
        load,
        pools,
        warmup,
        tape,
    }
}

fn tuples(rows: &[Vec<Value>]) -> Vec<Tuple> {
    rows.iter().map(|r| Tuple::new(r.clone())).collect()
}

fn encode(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::Probe { tenant, probes } => Request::encode_probe(*tenant, probes),
        Frame::Ingest { tenant, rows } => Request::Ingest {
            tenant: *tenant,
            rows: rows.clone(),
        }
        .encode(),
    }
}

/// What a frame got back.
#[derive(Debug, PartialEq)]
enum Answer {
    Probe(Vec<ProbeOutcome>),
    /// Rows added and epochs after the frame.
    Ingest(u64, Vec<ModuleEpoch>),
    Failed(String),
}

/// The reference: one `WorkflowOracles` per tenant, fed the same
/// frames directly.
struct Replica {
    tenants: Vec<WorkflowOracles>,
}

impl Replica {
    fn new(inputs: &Inputs) -> Self {
        let tenants = inputs
            .pools
            .iter()
            .map(|_| {
                WorkflowOracles::for_workflow_streaming(&inputs.workflow).expect("valid workflow")
            })
            .collect();
        Self { tenants }
    }

    fn answer(&self, frame: &Frame) -> Answer {
        match frame {
            Frame::Probe { tenant, probes } => Answer::Probe(
                self.tenants[*tenant as usize - 1]
                    .probe_batch(probes)
                    .expect("pool probes address existing modules"),
            ),
            Frame::Ingest { tenant, rows } => {
                let oracles = &self.tenants[*tenant as usize - 1];
                let added = oracles
                    .ingest_batch(&IngestBatch::new(tuples(rows)))
                    .expect("generated executions are valid");
                let epochs = oracles
                    .epoch_snapshot()
                    .into_iter()
                    .map(|(module, epoch)| ModuleEpoch { module, epoch })
                    .collect();
                Answer::Ingest(added as u64, epochs)
            }
        }
    }
}

/// The client side: the typed `Client` in untraced rounds; in traced
/// rounds the raw connection, so encode, round trip and decode get
/// spans of their own (`Client` is exactly these three steps).
enum Conn {
    Typed(Client),
    Raw(Box<dyn Connection>),
}

/// One frame sent; `transport` is the traced round trip's span.
struct Sent {
    answer: Answer,
    seconds: f64,
    payload: Vec<u8>,
    transport: Option<SpanId>,
    /// Traced: encode and decode time, in ns.
    codec_ns: [f64; 2],
}

impl Conn {
    fn send(&mut self, frame: &Frame, tr: &mut Tracer, req: u64) -> Sent {
        match self {
            Conn::Typed(client) => {
                let t = Instant::now();
                let answer = match frame {
                    Frame::Probe { tenant, probes } => client
                        .probe(TenantId(*tenant), probes)
                        .map_or_else(|e| Answer::Failed(e.to_string()), Answer::Probe),
                    Frame::Ingest { tenant, rows } => {
                        client.ingest(TenantId(*tenant), rows).map_or_else(
                            |e| Answer::Failed(e.to_string()),
                            |r| Answer::Ingest(r.added, r.epochs),
                        )
                    }
                };
                Sent {
                    answer,
                    seconds: t.elapsed().as_secs_f64(),
                    payload: Vec::new(),
                    transport: None,
                    codec_ns: [0.0; 2],
                }
            }
            Conn::Raw(conn) => {
                let name = match frame {
                    Frame::Probe { .. } => "op.probe",
                    Frame::Ingest { .. } => "op.ingest",
                };
                let root = tr.begin(name, None, req);
                let (payload, enc) = tr.span("wire.encode", Some(root), req, || encode(frame));
                let (reply, tx) = tr.span("transport.request", Some(root), req, || {
                    conn.request(&payload)
                });
                let (answer, dec) = tr.span("wire.decode", Some(root), req, || match reply {
                    Err(e) => Answer::Failed(e.to_string()),
                    Ok(reply) => match Response::decode(&reply) {
                        Ok(Response::Probe(outcomes)) => Answer::Probe(outcomes),
                        Ok(Response::Receipt(r)) => Answer::Ingest(r.added, r.epochs),
                        Ok(other) => Answer::Failed(format!("unexpected reply {other:?}")),
                        Err(e) => Answer::Failed(e.to_string()),
                    },
                });
                tr.end(root);
                Sent {
                    answer,
                    seconds: tr.seconds(root),
                    payload,
                    transport: Some(tx),
                    codec_ns: [tr.seconds(enc) * 1e9, tr.seconds(dec) * 1e9],
                }
            }
        }
    }
}

/// The served system: client connection, socket, tenants. Fields drop
/// in this order, so the connection closes before the socket server
/// joins its acceptor, even when a round unwinds.
struct System {
    conn: Conn,
    socket: SocketServer,
    registry: Arc<TenantRegistry>,
    durable: Arc<DurableRegistry>,
}

impl System {
    fn start(shape: &Shape, wf: &Workflow, raw: bool) -> System {
        let durable =
            Arc::new(DurableRegistry::create(Path::new(DATA_DIR)).expect("create data dir"));
        for t in 1..=shape.tenants {
            durable
                .register(TenantId(t), TenantConfig::new(wf))
                .expect("fresh tenant id");
        }
        let registry = Arc::clone(durable.registry());
        let sink: Arc<dyn IngestSink> = durable.clone();
        let server = Server::with_ingest_sink(Arc::clone(&registry), sink);
        let socket = SocketServer::bind(Arc::new(server), SOCKET, 1).expect("bind the socket");
        let transport = SocketTransport::new(SOCKET);
        let conn = if raw {
            Conn::Raw(transport.connect().expect("connect"))
        } else {
            Conn::Typed(Client::connect(&transport).expect("connect"))
        };
        System {
            conn,
            socket,
            registry,
            durable,
        }
    }

    /// Oracle and kernel counters summed over every tenant: calls,
    /// misses, revalidations, shortcut hits, cached levels, cached
    /// groupings.
    fn oracle_counters(&self) -> [u64; 6] {
        let mut c = [0u64; 6];
        for id in self.registry.ids() {
            let tenant = self.registry.get(id).expect("registered");
            let oracles = tenant.oracles();
            c[0] += oracles.total_calls();
            c[1] += oracles.total_misses();
            for (_, o) in oracles.iter() {
                c[2] += o.revalidations();
                c[3] += o.monotone_shortcut_hits();
                c[4] += o.cached_levels() as u64;
                c[5] += o.module().kernel().cached_groupings() as u64;
            }
        }
        c
    }

    /// Every tenant's epochs and answers on its whole view pool: the
    /// state a recovery must reproduce.
    fn live_state(&self, inputs: &Inputs) -> Vec<(Vec<ModuleEpoch>, Vec<ProbeOutcome>)> {
        (1..=inputs.pools.len() as u64)
            .map(|t| {
                let tenant = self.registry.get(TenantId(t)).expect("registered");
                let answers = tenant
                    .oracles()
                    .probe_batch(&inputs.pools[t as usize - 1])
                    .expect("pool probes address existing modules");
                (tenant.epochs(), answers)
            })
            .collect()
    }

    /// Closes the client, then stops the acceptor (it serves one
    /// connection to completion) and joins it.
    fn stop(self) -> Arc<DurableRegistry> {
        let System {
            conn,
            mut socket,
            durable,
            ..
        } = self;
        drop(conn);
        socket.shutdown();
        durable
    }
}

/// What a traced round replays each frame on, directly, each holding
/// the same state as the served system: a server (`handle_frame` on the
/// same payloads, in-memory ingest), the replica (`probe_batch`) and a
/// durable registry driven by `submit` and `wait_durable`.
struct Twins {
    server: Server,
    replica: Replica,
    durable: DurableRegistry,
    /// The replica's answers to the set-up frames.
    setup_expected: Vec<Answer>,
}

impl Twins {
    fn new(shape: &Shape, inputs: &Inputs) -> Twins {
        let registry = TenantRegistry::new();
        for t in 1..=shape.tenants {
            registry
                .create(
                    TenantId(t),
                    TenantConfig::new(&inputs.workflow).streaming(true),
                )
                .expect("fresh tenant id");
        }
        let server = Server::new(Arc::new(registry));
        let replica = Replica::new(inputs);
        let durable = DurableRegistry::create(Path::new(TWIN_DIR)).expect("create twin dir");
        for t in 1..=shape.tenants {
            durable
                .register(TenantId(t), TenantConfig::new(&inputs.workflow))
                .expect("fresh tenant id");
        }
        let mut setup_expected = Vec::new();
        for frame in inputs.setup_frames() {
            let _ = server.handle_frame(&encode(frame));
            if let Frame::Ingest { tenant, rows } = frame {
                durable
                    .ingest(TenantId(*tenant), &tuples(rows))
                    .expect("valid executions");
            }
            setup_expected.push(replica.answer(frame));
        }
        Twins {
            server,
            replica,
            durable,
            setup_expected,
        }
    }

    /// Replays a sent frame, inside spans hung under the frame's round
    /// trip. Returns the replica's answer.
    fn replay(
        &self,
        frame: &Frame,
        sent: &Sent,
        tr: &mut Tracer,
        req: u64,
        r: &mut Round,
    ) -> Answer {
        let tx = sent
            .transport
            .expect("traced rounds use the raw connection");
        match frame {
            Frame::Probe { .. } => {
                let hf = tr.begin("serve.handle_frame", Some(tx), req);
                let _ = self.server.handle_frame(&sent.payload);
                tr.end(hf);
                let (answer, pb) = tr.span("oracle.probe_batch", Some(hf), req, || {
                    self.replica.answer(frame)
                });
                let ns = |id| tr.seconds(id) * 1e9;
                for (layer, value) in r.probe_layers.iter_mut().zip([
                    sent.codec_ns[0],
                    sent.codec_ns[1],
                    ns(hf),
                    ns(pb),
                    ns(tx) - ns(hf),
                ]) {
                    layer.push(value);
                }
                answer
            }
            Frame::Ingest { tenant, rows } => {
                let _ = self.server.handle_frame(&sent.payload);
                let batch = IngestBatch::new(tuples(rows));
                let (outcome, sub) = tr.span("durable.submit", Some(tx), req, || {
                    self.durable.submit(TenantId(*tenant), &batch)
                });
                let seq = outcome.expect("valid executions").log_seq;
                let (synced, wait) = tr.span("durable.wait_durable", Some(tx), req, || {
                    self.durable.wait_durable(seq)
                });
                synced.expect("fsync");
                r.ingest_layers[0].push(tr.seconds(sub) * 1e9);
                r.ingest_layers[1].push(tr.seconds(wait) * 1e9);
                self.replica.answer(frame)
            }
        }
    }
}

/// One round's measurements.
#[derive(Default)]
struct Round {
    setup_s: f64,
    plan_s: Vec<f64>,
    cost: u64,
    lp_bound: f64,
    probe_s: Vec<f64>,
    ingest_s: Vec<f64>,
    probes: u64,
    rows: u64,
    recover_s: Vec<f64>,
    peak_rss_mb: f64,
    /// Traced rounds, per plan: sweep, derive and LP seconds.
    plan_layers: Vec<[f64; 3]>,
    /// Traced rounds: mean µs of cold and warm relation probes.
    relation_us: [f64; 2],
    /// Traced rounds, per probe frame (ns): encode, decode,
    /// `handle_frame`, `probe_batch`, transport self time.
    probe_layers: [Vec<f64>; 5],
    /// Traced rounds, per ingest frame (ns): submit, wait for fsync.
    ingest_layers: [Vec<f64>; 2],
}

impl Round {
    /// Time inside end-to-end operations: plans, probe and ingest
    /// frames (the traced rounds' replays excluded).
    fn op_s(&self) -> f64 {
        [&self.plan_s, &self.probe_s, &self.ingest_s]
            .iter()
            .flat_map(|v| v.iter())
            .sum()
    }
}

fn round(
    shape: &Shape,
    inputs: &Inputs,
    traced: bool,
    tr: &mut Tracer,
    index: usize,
    report: &mut Report,
) -> Round {
    let mut r = Round::default();
    reset_peak_rss();
    remove_dirs();
    let twins = traced.then(|| Twins::new(shape, inputs));

    // Set-up: build the plan's sweepers, the tenants and the server,
    // load provenance, warm every view of the pool.
    let mut quiet = Tracer::new(false);
    let t0 = Instant::now();
    let sweepers = plan::prepare(&inputs.plan);
    let mut sys = System::start(shape, &inputs.workflow, traced);
    let setup_answers: Vec<Answer> = inputs
        .setup_frames()
        .map(|f| sys.conn.send(f, &mut quiet, 0).answer)
        .collect();
    r.setup_s = t0.elapsed().as_secs_f64();

    // The timed plans. Request ids: plans first, then the tape's frames,
    // then the recoveries, so every operation of the run has its own.
    let per_round = (shape.plan.reps + inputs.tape.len() + shape.recoveries) as u64;
    let req0 = index as u64 * per_round;
    let mut counters = BTreeMap::new();
    let plans = plan::run_plans(
        &inputs.plan,
        sweepers,
        tr,
        req0,
        index,
        report,
        &mut counters,
    );
    r.plan_s = plans.plan_s;
    r.cost = plans.cost;
    r.lp_bound = plans.lp_bound;
    r.plan_layers = plans.layer_s;
    r.relation_us = plans.relation_us.unwrap_or_default();

    // The timed tape.
    let before = sys.oracle_counters();
    let mut answers = Vec::with_capacity(inputs.tape.len());
    let mut tape_expected = Vec::new();
    for (i, frame) in inputs.tape.iter().enumerate() {
        let req = req0 + (shape.plan.reps + i) as u64;
        let sent = sys.conn.send(frame, tr, req);
        match frame {
            Frame::Probe { probes, .. } => {
                r.probe_s.push(sent.seconds);
                r.probes += probes.len() as u64;
            }
            Frame::Ingest { rows, .. } => {
                r.ingest_s.push(sent.seconds);
                r.rows += rows.len() as u64;
            }
        }
        if let Some(tw) = &twins {
            tape_expected.push(tw.replay(frame, &sent, tr, req, &mut r));
        }
        answers.push(sent.answer);
    }
    let after = sys.oracle_counters();

    // Calls, misses, revalidations and shortcut hits count over the
    // tape; cached levels and groupings are what is resident after it.
    let names = [
        "oracle.calls",
        "oracle.misses",
        "oracle.revalidations",
        "oracle.shortcut_hits",
        "oracle.cached_levels",
        "serve.cached_groupings",
    ];
    for (i, name) in names.iter().enumerate() {
        let value = if i < 4 {
            after[i] - before[i]
        } else {
            after[i]
        };
        counters.insert((*name).to_string(), value.to_string());
    }
    let live = sys.live_state(inputs);
    let durable = sys.stop();
    let lane = durable.lane_stats();
    let rows_ingested: usize = inputs
        .load
        .iter()
        .chain(&inputs.tape)
        .map(|f| match f {
            Frame::Ingest { rows, .. } => rows.len(),
            Frame::Probe { .. } => 0,
        })
        .sum();
    let log_bytes = durable.log_bytes();
    drop(durable);
    let disk = file_len(&Path::new(DATA_DIR).join(LOG_FILE))
        + file_len(&Path::new(DATA_DIR).join(SNAPSHOT_FILE));
    for (name, value) in [
        ("durable.frames", lane.frames),
        ("durable.fsyncs", lane.fsyncs),
        ("durable.coalesced", lane.coalesced),
        ("durable.log_bytes", log_bytes),
        ("durable.disk_bytes", disk),
        ("durable.rows_ingested", rows_ingested as u64),
    ] {
        counters.insert(name.to_string(), value.to_string());
    }
    // The served system's peak, before the checks build state of their own.
    r.peak_rss_mb = peak_rss_mb();

    // Checks, outside the timed phases: every answer against the replica.
    let setup_expected = match twins {
        Some(tw) => tw.setup_expected,
        None => {
            let replica = Replica::new(inputs);
            let setup: Vec<Answer> = inputs.setup_frames().map(|f| replica.answer(f)).collect();
            tape_expected = inputs.tape.iter().map(|f| replica.answer(f)).collect();
            setup
        }
    };
    let got = setup_answers.iter().chain(&answers);
    let want = setup_expected.iter().chain(&tape_expected);
    for (i, (got, want)) in got.zip(want).enumerate() {
        report.attempted += 1;
        report.check(got == want, || {
            format!("round {index}: frame {i} answered {got:?}, expected {want:?}")
        });
    }
    let req = req0 + (shape.plan.reps + inputs.tape.len()) as u64;
    let replayed = recover(shape, inputs, &live, tr, req, index, &mut r, report);
    counters.insert(
        "durable.records_replayed".to_string(),
        replayed[0].to_string(),
    );
    counters.insert("durable.rows_applied".to_string(), replayed[1].to_string());
    report.round_counters(index, counters);
    remove_dirs();
    r
}

/// Removes the round's directories and commits the removal to disk
/// before anything is timed again. The filesystem frees (and may
/// discard) the blocks at its next journal commit, and an fsync in the
/// next round's set-up or tape would otherwise pay for it.
fn remove_dirs() {
    for dir in [DATA_DIR, TWIN_DIR, RECOVER_DIR] {
        let _ = std::fs::remove_dir_all(dir);
    }
    sync_path(Path::new("."));
}

/// Flushes a file or directory to disk (errors are ignored: this only
/// moves write-back out of the timed phases).
fn sync_path(path: &Path) {
    if let Ok(f) = std::fs::File::open(path) {
        let _ = f.sync_all();
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Recovers pristine copies of the data directory, timing each
/// `DurableRegistry::recover`, and checks the recovered epochs and
/// answers against the live ones. Returns the recovery report's
/// records replayed and rows applied.
#[allow(clippy::too_many_arguments)]
fn recover(
    shape: &Shape,
    inputs: &Inputs,
    live: &[(Vec<ModuleEpoch>, Vec<ProbeOutcome>)],
    tr: &mut Tracer,
    req0: u64,
    index: usize,
    r: &mut Round,
    report: &mut Report,
) -> [u64; 2] {
    let defs: Vec<TenantDef<'_>> = (1..=shape.tenants)
        .map(|t| TenantDef {
            id: TenantId(t),
            workflow: &inputs.workflow,
            limits: AdmissionLimits::default(),
        })
        .collect();
    let mut replayed = [0; 2];
    for k in 0..shape.recoveries {
        let _ = std::fs::remove_dir_all(RECOVER_DIR);
        std::fs::create_dir_all(RECOVER_DIR).expect("create recovery dir");
        for entry in std::fs::read_dir(DATA_DIR).expect("read data dir") {
            let entry = entry.expect("data dir entry");
            let copy = Path::new(RECOVER_DIR).join(entry.file_name());
            std::fs::copy(entry.path(), &copy).expect("copy data");
            // Written back now, not by the next round's first fsync.
            sync_path(&copy);
        }
        sync_path(Path::new(RECOVER_DIR));
        let req = req0 + k as u64;
        let root = tr.begin("op.recover", None, req);
        let t = Instant::now();
        let (result, _) = tr.span("durable.recover", Some(root), req, || {
            DurableRegistry::recover(Path::new(RECOVER_DIR), &defs)
        });
        r.recover_s.push(t.elapsed().as_secs_f64());
        tr.end(root);
        report.attempted += 1;
        let (recovered, rep) = match result {
            Ok(ok) => ok,
            Err(e) => {
                report.fail(format!("round {index}: recovery failed: {e}"));
                continue;
            }
        };
        replayed = [rep.records_replayed, rep.rows_applied];
        let same = live.iter().enumerate().all(|(t, (epochs, answers))| {
            let tenant = recovered
                .tenant(TenantId(t as u64 + 1))
                .expect("recovered tenant");
            let got = tenant
                .oracles()
                .probe_batch(&inputs.pools[t])
                .expect("pool probes");
            tenant.epochs() == *epochs && got == *answers
        });
        report.check(same, || {
            format!("round {index}: recovered epochs or answers differ from the live ones")
        });
    }
    replayed
}

pub fn run(shape: &Shape, cfg: &RunConfig, report: &mut Report) -> Option<Tracer> {
    let inputs = generate(shape, cfg.seed);
    let (plain, with_spans, traced) = crate::run_rounds(cfg, |tr, index| {
        round(shape, &inputs, tr.enabled(), tr, index, report)
    });
    remove_dirs();

    // Each statistic is taken per round, and the median over rounds is
    // reported: a burst of outside load that hits one round does not
    // move it.
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let us = |v: &[f64], q: f64| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        quantile(&v, q) * 1e6
    };
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    if !cfg.trace {
        let c = &report.counters;
        let count = |k: &str| c[k].parse::<f64>().expect("numeric counter");
        let metrics = [
            ("setup_s", per_round(&|r| r.setup_s), "s"),
            ("plan_s", per_round(&|r| median(&r.plan_s)), "s"),
            ("plan_cost", plain[0].cost as f64, "cost"),
            ("probe_p50_us", per_round(&|r| us(&r.probe_s, 0.50)), "us"),
            ("probe_p90_us", per_round(&|r| us(&r.probe_s, 0.90)), "us"),
            ("ingest_p50_us", per_round(&|r| us(&r.ingest_s, 0.50)), "us"),
            ("recover_s", per_round(&|r| median(&r.recover_s)), "s"),
            (
                "disk_bytes_per_row",
                count("durable.disk_bytes") / count("durable.rows_ingested"),
                "B",
            ),
            ("peak_rss_mb", per_round(&|r| r.peak_rss_mb), "MB"),
        ];
        for (name, value, unit) in metrics {
            report.metric(name, value, unit);
        }
        // The p99 tails, and the throughputs (one closed-loop connection:
        // the inverse of the mean frame time, so they carry the tails),
        // move by more than any usable bound between runs on a shared
        // host (a vCPU taken away for probes, the shared disk's fsync for
        // ingests), so they are shown but not gated.
        report.info("probe_p99_us", per_round(&|r| us(&r.probe_s, 0.99)), "us");
        report.info("ingest_p99_us", per_round(&|r| us(&r.ingest_s, 0.99)), "us");
        report.info(
            "probes_per_s",
            per_round(&|r| r.probes as f64 / sum(&r.probe_s)),
            "1/s",
        );
        report.info(
            "rows_per_s",
            per_round(&|r| r.rows as f64 / sum(&r.ingest_s)),
            "1/s",
        );
        return None;
    }
    report_layers(&with_spans, &traced, per_round(&|r| r.op_s()), report);
    Some(traced)
}

/// The per-layer metrics of a traced run.
fn report_layers(rounds: &[Round], traced: &Tracer, untraced_op_s: f64, report: &mut Report) {
    let all = |f: &dyn Fn(&Round) -> &Vec<f64>| {
        rounds
            .iter()
            .flat_map(|r| f(r).iter().copied())
            .collect::<Vec<_>>()
    };
    let mean_us = |f: &dyn Fn(&Round) -> &Vec<f64>| mean(&all(f)) * 1e-3;
    let plan_layer = |i: usize| {
        median(
            &rounds
                .iter()
                .flat_map(|r| r.plan_layers.iter().map(move |l| l[i]))
                .collect::<Vec<_>>(),
        )
    };
    let relation = |i: usize| median(&rounds.iter().map(|r| r.relation_us[i]).collect::<Vec<_>>());
    let c = &report.counters;
    let count = |k: &str| c[k].parse::<f64>().expect("numeric counter");
    let visited = count("sweep.visited");
    let recover = median(&all(&|r| &r.recover_s));
    let metrics = [
        ("relation.cold_probe_us", relation(0), "us"),
        ("relation.warm_probe_us", relation(1), "us"),
        (
            "relation.cached_groupings",
            count("plan.cached_groupings") + count("serve.cached_groupings"),
            "count",
        ),
        ("sweep.busy_s", plan_layer(0), "s"),
        ("sweep.visited", visited, "count"),
        ("sweep.pruned", count("sweep.pruned"), "count"),
        (
            "sweep.border_visited",
            count("sweep.border_visited"),
            "count",
        ),
        ("sweep.border_jumps", count("sweep.border_jumps"), "count"),
        (
            "sweep.visited_fraction",
            visited / count("sweep.lattice"),
            "ratio",
        ),
        ("optimize.derive_s", plan_layer(1), "s"),
        ("optimize.lp_s", plan_layer(2), "s"),
        ("optimize.lp_bound", rounds[0].lp_bound, "cost"),
        ("wire.encode_us", mean_us(&|r| &r.probe_layers[0]), "us"),
        ("wire.decode_us", mean_us(&|r| &r.probe_layers[1]), "us"),
        (
            "serve.handle_frame_us",
            mean_us(&|r| &r.probe_layers[2]),
            "us",
        ),
        (
            "oracle.probe_batch_us",
            mean_us(&|r| &r.probe_layers[3]),
            "us",
        ),
        (
            "transport.socket_us",
            mean_us(&|r| &r.probe_layers[4]),
            "us",
        ),
        (
            "oracle.hit_ratio",
            1.0 - count("oracle.misses") / count("oracle.calls"),
            "ratio",
        ),
        ("oracle.misses", count("oracle.misses"), "count"),
        (
            "oracle.revalidations",
            count("oracle.revalidations"),
            "count",
        ),
        (
            "oracle.shortcut_hits",
            count("oracle.shortcut_hits"),
            "count",
        ),
        (
            "oracle.cached_levels",
            count("oracle.cached_levels"),
            "count",
        ),
        ("durable.submit_us", mean_us(&|r| &r.ingest_layers[0]), "us"),
        (
            "durable.wait_durable_us",
            mean_us(&|r| &r.ingest_layers[1]),
            "us",
        ),
        ("durable.frames", count("durable.frames"), "count"),
        ("durable.fsyncs", count("durable.fsyncs"), "count"),
        ("durable.coalesced", count("durable.coalesced"), "count"),
        ("durable.log_bytes", count("durable.log_bytes"), "B"),
        (
            "durable.records_replayed",
            count("durable.records_replayed"),
            "count",
        ),
        (
            "durable.rows_applied",
            count("durable.rows_applied"),
            "count",
        ),
        (
            "durable.replay_rows_per_s",
            count("durable.rows_applied") / recover,
            "1/s",
        ),
        ("trace.coverage", traced.coverage(), "ratio"),
        (
            "trace.overhead",
            median(&rounds.iter().map(Round::op_s).collect::<Vec<_>>()) / untraced_op_s - 1.0,
            "ratio",
        ),
    ];
    for (name, value, unit) in metrics {
        report.metric(name, value, unit);
    }
}
