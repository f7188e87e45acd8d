//! Pressure-aware elastic scaling on the live runtime (§5.2, Eq. 1): a
//! burst of WordCount requests backs the DLUs up behind a shaped fabric,
//! the autoscaler grows the FLU pools, and the drained pools shrink back
//! — with every output validated byte-for-byte against a straight-line
//! reference.
//!
//! ```text
//! cargo run --release --example elastic_scaling
//! ```

use dataflower_metrics::{fmt_f, Table};
use dataflower_workloads::{Benchmark, ReportDetail, WorkloadSpec};

fn main() {
    println!("bursty_cluster: 2 warm-up + 12 burst requests of 192 KiB on 3 nodes");
    // A warmed-up run uses the elastic runtime config unless told otherwise.
    println!(
        "autoscaler: 1..3 replicas, threshold 2.0 ms, cooldown 30ms, drain estimate 2 MiB/s\n"
    );

    let report = WorkloadSpec::new()
        .benchmark(Benchmark::Wc)
        .nodes(3)
        .warmup(2)
        .requests(12)
        .payload_bytes(192 * 1024)
        .run();
    let ReportDetail::Elastic { events, timeline } = &report.detail else {
        unreachable!("a warmed-up run reports the elastic detail");
    };
    let peak_replicas = timeline
        .keys()
        .map(|k| timeline.max_value(k) as usize)
        .max()
        .unwrap_or(0);
    println!(
        "completed {} requests in {:.0} ms ({} scale-outs, {} scale-ins, peak {} replicas)\n",
        report.requests,
        report.elapsed.as_secs_f64() * 1e3,
        report.stats.scale_out_events,
        report.stats.scale_in_events,
        peak_replicas,
    );

    let mut t = Table::new(vec![
        "t (ms)",
        "function",
        "node",
        "event",
        "pool",
        "pressure (ms)",
    ]);
    for ev in events {
        t.row(vec![
            fmt_f(ev.at.as_secs_f64() * 1e3, 1),
            ev.function.clone(),
            ev.node.to_string(),
            format!("{:?}", ev.direction),
            format!("{} -> {}", ev.from_replicas, ev.to_replicas),
            fmt_f(ev.pressure_secs * 1e3, 2),
        ]);
    }
    println!("scaling timeline:\n{}", t.render());

    let end = report.elapsed.as_secs_f64();
    println!(
        "replica series (integral = replica-seconds over the run):\n{}",
        timeline.summary_table(end).render()
    );

    let skew = WorkloadSpec::new()
        .skewed_fanout(8, 1.2)
        .requests(6)
        .payload_bytes(256 * 1024)
        .run();
    println!(
        "skewed_fanout: {} requests over 8 Zipf-skewed branches, {} KiB out, \
         {} scale-outs — outputs byte-identical to the reference",
        skew.requests,
        skew.output_bytes / 1024,
        skew.stats.scale_out_events,
    );
}
