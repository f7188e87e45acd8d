//! Compiles every call `benchmark/README.md` § "Pinned API" lists.
//!
//! `benchmark/` is its own workspace, so `cargo test --workspace` never
//! builds it; this file is the same surface spelled once more inside the
//! workspace, so a change that would break the benchmark's build fails
//! `cargo test --workspace` (`ci.sh` step 2, the CI MSRV leg) instead of
//! only `ci.sh`'s TCP path gate.
//! When that list changes (a `[benchmark]` PR), change this file with it.

use std::io;
use std::sync::Arc;
use std::time::Duration;

use dataflower_rt::{
    worker_env, Bytes, ClusterConfig, ClusterRuntime, ClusterRuntimeBuilder, FluContext,
    NodeRuntime, Placement, ReqId, RtError, RtStats, TcpCluster, WorkerEnv,
};
use dataflower_workflow::{SizeModel, WorkModel, Workflow, WorkflowBuilder};

/// What `wait` returns on both media.
type Outputs = Result<Vec<(String, Bytes)>, RtError>;

fn workflow() -> Arc<Workflow> {
    let mut b = WorkflowBuilder::new("pinned");
    let head = b.function("head", WorkModel::fixed(0.0));
    let tail = b.function("tail", WorkModel::fixed(0.0));
    b.client_input(head, "in", SizeModel::ScaleOfInput(1.0));
    b.edge(head, tail, "d", SizeModel::ScaleOfInput(1.0));
    b.client_output(tail, "out", SizeModel::ScaleOfInput(1.0));
    Arc::new(b.build().expect("valid workflow"))
}

fn builder() -> ClusterRuntimeBuilder {
    ClusterRuntimeBuilder::new(workflow())
        .placement(Placement::with_nodes(2).assign("head", 0).assign("tail", 1))
        .config(ClusterConfig::new().recovery(Duration::from_millis(50)))
        .register("head", |ctx: &mut FluContext| {
            let _: u64 = ctx.request().id();
            let input: Bytes = ctx.input("in").expect("input").clone();
            let _: usize = ctx.inputs().map(|(_, p)| p.len()).sum();
            ctx.put_to("d", "tail".to_string(), input.slice(1..));
        })
        .register("tail", |ctx: &mut FluContext| {
            let mut out = Vec::new();
            out.extend_from_slice(ctx.input("d").expect("input")); // Deref<[u8]>
            ctx.put("out", out); // Into<Bytes> for Vec<u8>
        })
        .record_trace(false)
}

/// The worker-process half, pinned by signature (calling it would spawn
/// processes).
#[allow(dead_code)]
fn tcp_surface(env: WorkerEnv) -> ! {
    let _launch: fn(Arc<Workflow>, Placement, ClusterConfig, &str) -> io::Result<TcpCluster> =
        TcpCluster::launch;
    let _invoke: fn(&TcpCluster, Vec<(String, Bytes)>) -> ReqId = TcpCluster::invoke;
    let _wait: fn(&TcpCluster, ReqId, Duration) -> Outputs = TcpCluster::wait;
    let _stats: fn(&TcpCluster) -> RtStats = TcpCluster::stats;
    let _shutdown: fn(TcpCluster) = TcpCluster::shutdown;
    let _env: fn() -> Option<WorkerEnv> = worker_env;
    let _: &str = env.tag();
    let _: usize = env.node();
    env.serve(builder())
}

#[test]
fn the_benchmarks_surface_compiles_and_runs_in_process() {
    // `build` is the identity the benchmark still calls on its config.
    let cfg: ClusterConfig = ClusterConfig::new()
        .recovery(Duration::from_millis(50))
        .build();
    assert_eq!(cfg.recovery, Some(Duration::from_millis(50)));

    let rt: ClusterRuntime = builder().start().expect("start");
    let req: ReqId = rt
        .try_invoke("t0", vec![("in".to_string(), Bytes::from(vec![7u8; 64]))])
        .expect("admitted");
    let outputs: Outputs = rt.wait(req, Duration::from_secs(10));
    match outputs {
        Ok(out) => assert_eq!(out[0].1.len(), 63),
        Err(RtError::Timeout) => panic!("timed out"),
        Err(e) => panic!("{e}"),
    }
    rt.forget(req);
    let node: &NodeRuntime = rt.node(0);
    let _: (usize, usize) = (node.parked_entries(), node.thread_count());
    let _: (usize, usize) = (rt.fabric_inbound_depth(1), rt.retained_transfers());
    let s: RtStats = rt.stats();
    let twelve = [
        s.invocations,
        s.puts,
        s.direct_socket_transfers,
        s.local_pipe_transfers,
        s.remote_pipe_transfers,
        s.remote_chunks,
        s.remote_bytes,
        s.acked_marks,
        s.retransmitted_transfers,
        s.replayed_bytes,
        s.spills,
        s.rejected_requests,
    ];
    assert_eq!(twelve[0], 2, "head and tail each ran once");
    rt.shutdown();
}
