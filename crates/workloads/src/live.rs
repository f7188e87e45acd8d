//! Live multi-node execution of the four paper benchmarks (§9.1) on the
//! FLU/DLU cluster runtime — real threads, real bytes, real pipes.
//!
//! Where [`Scenario::open_loop`](crate::Scenario::open_loop) *simulates*
//! a benchmark's timing, [`WorkloadSpec`](crate::WorkloadSpec) *executes* it: every
//! function body does actual byte-level work (splitting, counting,
//! transcoding, factorizing), payloads really cross the inter-node
//! fabric, and the run is validated against a straight-line reference
//! computation — any payload lost, duplicated or reordered by the
//! runtime makes the runner panic.
//!
//! The same workflow definitions drive both paths, so the simulated
//! figures and the live runs stay structurally identical. The pure
//! computations (inputs, reference outputs, byte transforms) live in
//! the crate-internal `common` module, shared with every other live
//! scenario.

use std::sync::Arc;
use std::time::Duration;

use dataflower_rt::Placement;
use dataflower_rt::{
    ByLevel, Bytes, ClusterConfig, ClusterRuntime, ClusterRuntimeBuilder, PlacementPolicy,
    RoundRobin, RtStats, SingleNode,
};
use dataflower_workflow::Workflow;

use crate::benchmarks::Benchmark;
use crate::common::{
    blur, branch_ordered, count_table, digest_expand, downsample, even_spans, factorize, render,
    render_counts, run_verified, transcode, SVD_BLOCKS, VID_BRANCHES, WC_FAN_OUT,
};
use crate::spec::WorkloadSpec;

/// How the live runner places benchmark functions on nodes. Each variant
/// stands for one of the stock [`PlacementPolicy`] implementations,
/// selected with [`WorkloadSpec::placement`](crate::WorkloadSpec::placement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivePlacement {
    /// Everything co-located on node 0 (the paper's single-worker
    /// baseline; only direct sockets and local pipes fire) — the
    /// [`SingleNode`] policy.
    SingleNode,
    /// Functions scattered one by one in topological order — almost
    /// every data edge crosses nodes; the [`RoundRobin`] policy.
    RoundRobin,
    /// One dependency level per node — stages stay co-located, level
    /// boundaries cross nodes (the spread used in the committed bench
    /// baseline); the [`ByLevel`] policy.
    ByLevel,
}

impl LivePlacement {
    /// The stock placement policy this variant stands for.
    pub fn policy(self) -> &'static dyn PlacementPolicy {
        match self {
            LivePlacement::SingleNode => &SingleNode,
            LivePlacement::RoundRobin => &RoundRobin,
            LivePlacement::ByLevel => &ByLevel,
        }
    }
}

/// Outcome of one live benchmark run: wall-clock time plus the runtime's
/// pipe/transfer counters. Produced by the live runners.
#[derive(Debug, Clone)]
pub struct LiveClusterReport {
    /// Short benchmark name (`wc`, `vid`, `svd`, `img`).
    pub benchmark: &'static str,
    /// Worker nodes in the topology.
    pub nodes: usize,
    /// Requests completed (all of them — a failed request panics).
    pub requests: usize,
    /// Wall-clock time from first invoke to last result.
    pub elapsed: Duration,
    /// Total client-output bytes received.
    pub output_bytes: usize,
    /// Aggregated runtime counters (pipe kinds, chunks, checkpoints...).
    pub stats: RtStats,
}

/// The plain closed-loop live runner — the body of a
/// [`WorkloadSpec`] with no faults, closed-loop traffic and the
/// in-process fabric, placed by `policy`. With
/// [`WorkloadSpec::record_trace`] set, the runtime records a
/// [`dataflower_rt::trace`] event stream and writes it (in the on-disk
/// `DFTR` encoding) to that path after the run.
pub(crate) fn run_live_cluster_traced(
    bench: Benchmark,
    spec: &WorkloadSpec,
    policy: &dyn PlacementPolicy,
) -> LiveClusterReport {
    let wf = bench.workflow();
    let placement = policy.initial(&wf, spec.nodes);
    let rt_cfg = spec.rt.clone().unwrap_or_default();
    let rt = live_builder(bench, Arc::clone(&wf), placement, rt_cfg)
        .record_trace(spec.record_trace.is_some())
        .start()
        .expect("live benchmark bodies cover the DAG");
    let run = run_verified(
        "live",
        bench,
        spec.closed_loop_requests("live"),
        spec.payload_bytes,
        spec.timeout,
        |name, payload| rt.invoke(vec![(name, payload)]),
        || {},
        |req, timeout| rt.wait(req, timeout),
    );
    let stats = rt.stats();
    let nodes = rt.node_count(); // actual topology: SingleNode forces 1

    // Teardown first, trace second: events for transfers off a
    // request's critical path can be recorded after the last `wait`
    // returns, so only a post-shutdown read is guaranteed complete.
    let trace = rt.shutdown_into_trace();
    if let (Some(path), Some(bytes)) = (&spec.record_trace, trace) {
        if let Err(e) = std::fs::write(path, bytes) {
            eprintln!("warning: could not write trace to {}: {e}", path.display());
        }
    }
    LiveClusterReport {
        benchmark: bench.name(),
        nodes,
        requests: run.requests,
        elapsed: run.elapsed,
        output_bytes: run.output_bytes,
        stats,
    }
}

/// Builds (but does not start) the live cluster builder for `bench`
/// with every function body registered — shared by the in-process
/// runtime and the worker-process TCP mode, which must rebuild the
/// identical topology in every OS process.
pub(crate) fn live_builder(
    bench: Benchmark,
    wf: Arc<Workflow>,
    placement: Placement,
    rt_cfg: ClusterConfig,
) -> ClusterRuntimeBuilder {
    let builder = ClusterRuntimeBuilder::new(wf)
        .placement(placement)
        .config(rt_cfg);
    match bench {
        Benchmark::Wc => register_wc(builder),
        Benchmark::Vid => register_vid(builder),
        Benchmark::Svd => register_svd(builder),
        Benchmark::Img => register_img(builder),
    }
}

/// Builds the live runtime for `bench` with every function body
/// registered.
pub(crate) fn live_runtime(
    bench: Benchmark,
    wf: Arc<Workflow>,
    placement: Placement,
    rt_cfg: ClusterConfig,
) -> ClusterRuntime {
    live_builder(bench, wf, placement, rt_cfg)
        .start()
        .expect("live benchmark bodies cover the DAG")
}

// --- WordCount -------------------------------------------------------

fn register_wc(b: ClusterRuntimeBuilder) -> ClusterRuntimeBuilder {
    let mut b = b.register("wc_start", |ctx| {
        let text = ctx.input("text").expect("client text").clone();
        // Cut the payload at whitespace boundaries so no word straddles
        // two shards; each shard is a zero-copy view of the input.
        let bytes = &text[..];
        let mut cuts = [0usize; WC_FAN_OUT + 1];
        cuts[WC_FAN_OUT] = bytes.len();
        for i in 1..WC_FAN_OUT {
            let mut p = i * bytes.len() / WC_FAN_OUT;
            while p < bytes.len() && !bytes[p].is_ascii_whitespace() {
                p += 1;
            }
            cuts[i] = p.max(cuts[i - 1]).min(bytes.len());
        }
        for i in 0..WC_FAN_OUT {
            ctx.put_to(
                "file",
                format!("wc_count_{i}"),
                text.slice(cuts[i]..cuts[i + 1]),
            );
        }
    });
    for i in 0..WC_FAN_OUT {
        b = b.register(format!("wc_count_{i}"), |ctx| {
            let shard = ctx.input("file").expect("shard");
            ctx.put("count", Bytes::from(count_table(shard)));
        });
    }
    b.register("wc_merge", |ctx| {
        let out = {
            let mut total: std::collections::BTreeMap<&[u8], u64> =
                std::collections::BTreeMap::new();
            let payloads = ctx.inputs_named("count");
            for payload in &payloads {
                for line in payload.split(|b| *b == b'\n').filter(|l| !l.is_empty()) {
                    let tab = line.iter().position(|b| *b == b'\t').expect("word\\tcount");
                    let count = std::str::from_utf8(&line[tab + 1..])
                        .ok()
                        .and_then(|s| s.parse::<u64>().ok())
                        .expect("count");
                    *total.entry(&line[..tab]).or_default() += count;
                }
            }
            render_counts(&total)
        };
        ctx.put("output", Bytes::from(out));
    })
}

// --- Video-FFmpeg ----------------------------------------------------

fn register_vid(b: ClusterRuntimeBuilder) -> ClusterRuntimeBuilder {
    let mut b = b.register("vid_split", |ctx| {
        let video = ctx.input("video").expect("client video").clone();
        for (i, (lo, hi)) in even_spans(video.len(), VID_BRANCHES)
            .into_iter()
            .enumerate()
        {
            ctx.put_to(
                "chunk",
                format!("vid_transcode_{i}"),
                Bytes::copy_from_slice(&video[lo..hi]),
            );
        }
    });
    for i in 0..VID_BRANCHES {
        b = b.register(format!("vid_transcode_{i}"), |ctx| {
            let chunk = ctx.input("chunk").expect("chunk");
            ctx.put("encoded", Bytes::from(transcode(chunk)));
        });
    }
    b.register("vid_merge", |ctx| {
        let merged: Vec<u8> = branch_ordered(ctx, "encoded")
            .into_iter()
            .flat_map(|b| b.iter().copied())
            .collect();
        ctx.put("video_out", Bytes::from(merged));
    })
}

// --- SVD -------------------------------------------------------------

fn register_svd(b: ClusterRuntimeBuilder) -> ClusterRuntimeBuilder {
    let mut b = b.register("svd_partition", |ctx| {
        let matrix = ctx.input("matrix").expect("client matrix").clone();
        for (i, (lo, hi)) in even_spans(matrix.len(), SVD_BLOCKS).into_iter().enumerate() {
            ctx.put_to(
                "tile",
                format!("svd_block_{i}"),
                Bytes::copy_from_slice(&matrix[lo..hi]),
            );
        }
    });
    for i in 0..SVD_BLOCKS {
        b = b.register(format!("svd_block_{i}"), |ctx| {
            let tile = ctx.input("tile").expect("tile");
            ctx.put("factors", Bytes::from(factorize(tile)));
        });
    }
    b.register("svd_compose", |ctx| {
        let composed: Vec<u8> = branch_ordered(ctx, "factors")
            .into_iter()
            .flat_map(|b| b.iter().copied())
            .collect();
        ctx.put("usv", Bytes::from(composed));
    })
}

// --- ML image pipeline ----------------------------------------------

fn register_img(b: ClusterRuntimeBuilder) -> ClusterRuntimeBuilder {
    b.register("img_extract", |ctx| {
        let image = ctx.input("image").expect("client image").clone();
        ctx.put("raw", image);
    })
    .register("img_resize", |ctx| {
        let raw = ctx.input("raw").expect("raw");
        let scaled = Bytes::from(downsample(raw));
        ctx.put("scaled", scaled.clone());
        ctx.put("scaled2", scaled);
    })
    .register("img_classify", |ctx| {
        let scaled = ctx.input("scaled").expect("scaled");
        ctx.put(
            "labels",
            Bytes::from(digest_expand(scaled, 24 * 1024, 0x9e3779b97f4a7c15)),
        );
    })
    .register("img_detect", |ctx| {
        let scaled = ctx.input("scaled2").expect("scaled2");
        ctx.put(
            "boxes",
            Bytes::from(digest_expand(scaled, 32 * 1024, 0xd1b54a32d192ed03)),
        );
    })
    .register("img_blur", |ctx| {
        let labels = ctx.input("labels").expect("labels");
        let boxes = ctx.input("boxes").expect("boxes");
        ctx.put("blurred", Bytes::from(blur(labels, boxes)));
    })
    .register("img_render", |ctx| {
        let blurred = ctx.input("blurred").expect("blurred");
        ctx.put("final", Bytes::from(render(blurred)));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflower_rt::LoadAware;

    #[test]
    fn all_benchmarks_complete_on_three_spread_nodes() {
        for bench in Benchmark::ALL {
            let spec = WorkloadSpec::new().payload_bytes(96 * 1024);
            let report = run_live_cluster_traced(bench, &spec, spec.placement.policy());
            assert_eq!(report.requests, 1);
            assert!(report.output_bytes > 0, "{bench}: empty output");
            assert!(
                report.stats.remote_bytes > 0,
                "{bench}: spread placement shipped nothing across nodes"
            );
        }
    }

    #[test]
    fn single_node_run_uses_no_remote_pipe() {
        let spec = WorkloadSpec::new()
            .nodes(1)
            .placement(LivePlacement::SingleNode)
            .payload_bytes(64 * 1024);
        let report = run_live_cluster_traced(Benchmark::Vid, &spec, spec.placement.policy());
        assert_eq!(report.stats.remote_pipe_transfers, 0);
        assert_eq!(report.stats.remote_bytes, 0);
        assert!(report.stats.local_pipe_transfers > 0);
    }

    #[test]
    fn wc_spread_exercises_remote_and_direct_pipes() {
        let spec = WorkloadSpec::new().payload_bytes(256 * 1024).requests(2);
        let report = run_live_cluster_traced(Benchmark::Wc, &spec, spec.placement.policy());
        // 64 KiB shards stream remotely; the small count tables cross on
        // the direct socket.
        assert!(report.stats.remote_pipe_transfers > 0);
        assert!(report.stats.direct_socket_transfers > 0);
        assert!(report.stats.remote_chunks >= report.stats.remote_pipe_transfers);
    }

    #[test]
    fn custom_policy_drives_the_live_runner() {
        let spec = WorkloadSpec::new().payload_bytes(64 * 1024);
        let report = run_live_cluster_traced(Benchmark::Svd, &spec, &LoadAware::idle());
        assert_eq!(report.requests, 1);
        assert!(report.output_bytes > 0);
    }
}
