//! The adapter: **every** call into the program is in this file.
//!
//! The benchmark pins a narrow, tenant-facing surface of `dataflower-rt` and
//! `dataflower-workflow` (listed in README.md, "Pinned API") and nothing of
//! their internals, so refactors behind that surface need no benchmark edit
//! and cannot change what is measured. The function bodies and the DAGs are
//! defined here too — they belong to the benchmark, are deliberately cheap
//! (slices, one concat, O(1) header work), and double as the span probes.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use dataflower_rt::{
    worker_env, Bytes, ClusterConfig, ClusterRuntime, ClusterRuntimeBuilder, FluContext, Placement,
    ReqId, RtError, RtStats, TcpCluster,
};
use dataflower_workflow::{SizeModel, WorkModel, Workflow, WorkflowBuilder};

use crate::loadgen::{Gauges, Polled, Target};
use crate::spans::{self, BodyProbe};
use crate::workload::{
    self, split_range, work_skip, Dag, Medium, Workload, CHAIN_STAGES, FANOUT, TENANTS,
};

const TENANT_NAMES: [&str; TENANTS] = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"];
/// §6.2 retransmit timeout of the workload that runs with recovery on.
const RETRANSMIT: Duration = Duration::from_millis(50);

// ------------------------------------------------------------------- DAGs

fn workflow(w: &Workload) -> Arc<Workflow> {
    // The work and size models feed the simulator only; the live runtime
    // runs the registered bodies on the real bytes.
    let work = WorkModel::fixed(0.0);
    let size = SizeModel::ScaleOfInput(1.0);
    let mut b = WorkflowBuilder::new(w.name);
    match w.dag {
        Dag::Fanout => {
            let split = b.function("split", work);
            let workers: Vec<_> = (0..FANOUT)
                .map(|k| b.function(format!("work_{k}"), work))
                .collect();
            let merge = b.function("merge", work);
            b.client_input(split, "in", size);
            for &wk in &workers {
                b.edge(split, wk, "part", size);
                b.edge(wk, merge, "piece", size);
            }
            b.client_output(merge, "out", size);
        }
        Dag::Chain => {
            let stages: Vec<_> = (0..CHAIN_STAGES)
                .map(|k| b.function(format!("stage_{k}"), work))
                .collect();
            b.client_input(stages[0], "in", size);
            for pair in stages.windows(2) {
                b.edge(pair[0], pair[1], "d", size);
            }
            b.client_output(stages[CHAIN_STAGES - 1], "out", size);
        }
    }
    Arc::new(b.build().expect("benchmark workflow is valid"))
}

/// One dependency level per node, level *l* on node *l* mod `nodes` (the
/// `ByLevel` layout), spelled out so the harness knows which pipe each hop
/// takes: with ≥ 2 nodes every fan-out hop crosses nodes.
fn placement(w: &Workload) -> Placement {
    let mut p = Placement::with_nodes(w.nodes);
    let level = |name: &str| match (w.dag, name) {
        (Dag::Fanout, "split") => 0,
        (Dag::Fanout, "merge") => 2,
        (Dag::Fanout, _) => 1,
        (Dag::Chain, _) => 0,
    };
    for f in w.functions() {
        let node = level(&f) % w.nodes;
        p = p.assign(f, node);
    }
    p
}

fn config(w: &Workload) -> ClusterConfig {
    let cfg = ClusterConfig::new();
    if w.recovery {
        cfg.recovery(RETRANSMIT)
    } else {
        cfg
    }
}

// ----------------------------------------------------------------- bodies

fn builder(w: &Workload) -> ClusterRuntimeBuilder {
    let mut b = ClusterRuntimeBuilder::new(workflow(w))
        .placement(placement(w))
        .config(config(w));
    match w.dag {
        Dag::Fanout => {
            // split: hand each branch its quarter of the input (views, no copy).
            b = b.register("split", |ctx: &mut FluContext| {
                let probe = BodyProbe::enter(ctx.request().id(), 0);
                let input = ctx.input("in").expect("split input").clone();
                for k in 0..FANOUT {
                    let (a, z) = split_range(input.len(), k);
                    let part = input.slice(a..z);
                    spans::around_put(&probe, || ctx.put_to("part", format!("work_{k}"), part));
                }
                spans::exit(probe);
            });
            // work_k: drop the first k+1 bytes of the part (a view).
            for k in 0..FANOUT {
                b = b.register(format!("work_{k}"), move |ctx: &mut FluContext| {
                    let probe = BodyProbe::enter(ctx.request().id(), 1 + k as u8);
                    let piece = ctx.input("part").expect("work input").slice(work_skip(k)..);
                    spans::around_put(&probe, || ctx.put("piece", piece));
                    spans::exit(probe);
                });
            }
            // merge: 8-byte length header, then the pieces in branch order.
            b = b.register("merge", |ctx: &mut FluContext| {
                let probe = BodyProbe::enter(ctx.request().id(), 1 + FANOUT as u8);
                let total: usize = ctx.inputs().map(|(_, p)| p.len()).sum();
                let mut out = Vec::with_capacity(8 + total);
                out.extend_from_slice(&(total as u64).to_le_bytes());
                // `inputs` is keyed `piece@work_k`, so key order is branch order.
                for (_, piece) in ctx.inputs() {
                    out.extend_from_slice(piece);
                }
                spans::around_put(&probe, || ctx.put("out", out));
                spans::exit(probe);
            });
        }
        Dag::Chain => {
            // stage_k: pass the input on minus its first byte (a view).
            for k in 0..CHAIN_STAGES {
                let data_name = if k + 1 == CHAIN_STAGES { "out" } else { "d" };
                let input_name = if k == 0 { "in" } else { "d" };
                b = b.register(format!("stage_{k}"), move |ctx: &mut FluContext| {
                    let probe = BodyProbe::enter(ctx.request().id(), k as u8);
                    let rest = ctx.input(input_name).expect("stage input").slice(1..);
                    spans::around_put(&probe, || ctx.put(data_name, rest));
                    spans::exit(probe);
                });
            }
        }
    }
    b
}

// ---------------------------------------------------------------- workers

fn worker_tag(w: &Workload, traced: bool, out_dir: &std::path::Path) -> String {
    format!("{}\n{}\n{}", w.name, u8::from(traced), out_dir.display())
}

/// Call first in `main`: when this process was spawned by
/// [`TcpCluster::launch`] as a worker, rebuild the workload named in the tag
/// and serve it — never returning.
pub fn serve_if_worker() {
    let Some(env) = worker_env() else {
        return;
    };
    let mut tag = env.tag().split('\n');
    let w = tag
        .next()
        .and_then(workload::by_name)
        .expect("worker tag names a workload");
    let traced = tag.next() == Some("1");
    let out_dir = PathBuf::from(tag.next().expect("worker tag names the out dir"));
    if traced {
        spans::spawn_worker_flusher(spans::worker_file(&out_dir, w.name, env.node()));
    }
    env.serve(builder(w))
}

// -------------------------------------------------------------------- SUT

enum Cluster {
    InProc(ClusterRuntime),
    Tcp(TcpCluster),
}

/// The input pool and the set-up probe in the program's buffer type,
/// converted once per run so that a set-up times the program and not the
/// harness's copies.
#[derive(Clone)]
pub struct Inputs {
    pool: Vec<Bytes>,
    probe: Bytes,
}

impl Inputs {
    pub fn load(pool: Vec<Vec<u8>>, probe: Vec<u8>) -> Inputs {
        Inputs {
            pool: pool.into_iter().map(Bytes::from).collect(),
            probe: Bytes::from(probe),
        }
    }
}

/// A started cluster running one workload, with its input pool loaded.
pub struct Sut {
    cluster: Cluster,
    nodes: usize,
    inputs: Inputs,
}

/// The twelve program counters the benchmark reads, summed over nodes (and
/// worker processes).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgramStats {
    pub invocations: u64,
    pub puts: u64,
    pub direct: u64,
    pub local: u64,
    pub remote: u64,
    pub chunks: u64,
    pub remote_bytes: u64,
    pub acked_marks: u64,
    pub retransmitted: u64,
    pub replayed_bytes: u64,
    pub spills: u64,
    pub rejected: u64,
}

impl ProgramStats {
    /// `self − earlier`, field by field.
    pub fn since(&self, earlier: &ProgramStats) -> ProgramStats {
        ProgramStats {
            invocations: self.invocations - earlier.invocations,
            puts: self.puts - earlier.puts,
            direct: self.direct - earlier.direct,
            local: self.local - earlier.local,
            remote: self.remote - earlier.remote,
            chunks: self.chunks - earlier.chunks,
            remote_bytes: self.remote_bytes - earlier.remote_bytes,
            acked_marks: self.acked_marks - earlier.acked_marks,
            retransmitted: self.retransmitted - earlier.retransmitted,
            replayed_bytes: self.replayed_bytes - earlier.replayed_bytes,
            spills: self.spills - earlier.spills,
            rejected: self.rejected - earlier.rejected,
        }
    }
}

impl From<RtStats> for ProgramStats {
    fn from(s: RtStats) -> ProgramStats {
        ProgramStats {
            invocations: s.invocations,
            puts: s.puts,
            direct: s.direct_socket_transfers,
            local: s.local_pipe_transfers,
            remote: s.remote_pipe_transfers,
            chunks: s.remote_chunks,
            remote_bytes: s.remote_bytes,
            acked_marks: s.acked_marks,
            retransmitted: s.retransmitted_transfers,
            replayed_bytes: s.replayed_bytes,
            spills: s.spills,
            rejected: s.rejected_requests,
        }
    }
}

/// How a cluster is started for a phase.
#[derive(Debug, Clone)]
pub struct StartOpts {
    /// TCP workers record body stamps (in-process bodies follow
    /// `spans::set_enabled` instead).
    pub traced_workers: bool,
    /// The program's own DFTR trace recorder on (`record_trace(true)`).
    pub dftr: bool,
    /// Run the workload in-process even if its medium is TCP (the
    /// `transport.medium_delta` comparator).
    pub force_inproc: bool,
    pub out_dir: PathBuf,
}

impl Sut {
    /// Starts the cluster (spawning worker processes for the TCP medium)
    /// and hands it views of `inputs`.
    pub fn start(w: &Workload, inputs: &Inputs, opts: &StartOpts) -> io::Result<Sut> {
        let cluster = if w.medium == Medium::Tcp && !opts.force_inproc {
            Cluster::Tcp(TcpCluster::launch(
                workflow(w),
                placement(w),
                config(w).build(),
                &worker_tag(w, opts.traced_workers, &opts.out_dir),
            )?)
        } else {
            let rt = builder(w)
                .record_trace(opts.dftr)
                .start()
                .map_err(|e| io::Error::other(e.to_string()))?;
            Cluster::InProc(rt)
        };
        Ok(Sut {
            cluster,
            nodes: w.nodes,
            inputs: inputs.clone(),
        })
    }

    pub fn stats(&self) -> ProgramStats {
        match &self.cluster {
            Cluster::InProc(rt) => rt.stats(),
            Cluster::Tcp(c) => c.stats(),
        }
        .into()
    }

    /// Sends the set-up probe (tenant 0).
    pub fn invoke_probe(&self) -> Option<ReqId> {
        self.send(0, self.inputs.probe.clone())
    }

    fn send(&self, tenant: u8, input: Bytes) -> Option<ReqId> {
        let inputs = vec![("in".to_string(), input)];
        match &self.cluster {
            Cluster::InProc(rt) => rt.try_invoke(TENANT_NAMES[tenant as usize], inputs).ok(),
            // The worker-process cluster has no admission gate: every
            // arrival is admitted.
            Cluster::Tcp(c) => Some(c.invoke(inputs)),
        }
    }

    /// Σ of the nodes' non-scheduler threads (`None` over TCP, where the
    /// nodes live in other processes).
    pub fn runtime_threads(&self) -> Option<usize> {
        match &self.cluster {
            Cluster::InProc(rt) => Some((0..self.nodes).map(|n| rt.node(n).thread_count()).sum()),
            Cluster::Tcp(_) => None,
        }
    }

    /// Stops every thread and worker process and waits for them.
    pub fn shutdown(self) {
        match self.cluster {
            Cluster::InProc(rt) => rt.shutdown(),
            Cluster::Tcp(c) => c.shutdown(),
        }
    }
}

fn polled(r: Result<Vec<(String, Bytes)>, RtError>) -> Polled<Bytes> {
    match r {
        // Every benchmark workflow has exactly one client output.
        Ok(mut outputs) if outputs.len() == 1 => Polled::Done(outputs.remove(0).1),
        Ok(_) => Polled::Failed,
        Err(RtError::Timeout) => Polled::Pending,
        Err(_) => Polled::Failed,
    }
}

impl Target for Sut {
    type Req = ReqId;
    type Out = Bytes;

    fn invoke(&self, tenant: u8, input: u8) -> Option<ReqId> {
        self.send(tenant, self.inputs.pool[input as usize].clone())
    }

    fn wait(&self, req: ReqId, timeout: Duration) -> Polled<Bytes> {
        polled(match &self.cluster {
            Cluster::InProc(rt) => rt.wait(req, timeout),
            Cluster::Tcp(c) => c.wait(req, timeout),
        })
    }

    fn forget(&self, req: ReqId) {
        if let Cluster::InProc(rt) = &self.cluster {
            rt.forget(req);
        }
    }

    fn id(&self, req: ReqId) -> u64 {
        req.id()
    }

    fn gauges(&self) -> Option<Gauges> {
        let Cluster::InProc(rt) = &self.cluster else {
            return None;
        };
        Some(Gauges {
            inbound_depth: (0..self.nodes).map(|n| rt.fabric_inbound_depth(n)).sum(),
            retained: rt.retained_transfers(),
            parked: (0..self.nodes).map(|n| rt.node(n).parked_entries()).sum(),
        })
    }
}
