//! A **real** WordCount on the live FLU/DLU runtime: actual text, actual
//! counting, actual threads — the paper's Fig. 7 running example,
//! executed rather than simulated.
//!
//! ```text
//! cargo run --example wordcount_live
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dataflower_rt::{Bytes, ClusterRuntimeBuilder};
use dataflower_workflow::{SizeModel, WorkModel, WorkflowBuilder};

const FAN_OUT: usize = 4;

fn main() {
    // The same workflow definition language the simulator uses.
    let mut b = WorkflowBuilder::new("wordcount");
    let start = b.function("wc_start", WorkModel::fixed(0.001));
    let merge = b.function("wc_merge", WorkModel::fixed(0.001));
    b.client_input(start, "text", SizeModel::Fixed(1.0));
    for i in 0..FAN_OUT {
        let count = b.function(format!("wc_count_{i}"), WorkModel::fixed(0.001));
        b.edge(
            start,
            count,
            "file",
            SizeModel::ScaleOfInput(1.0 / FAN_OUT as f64),
        );
        b.edge(count, merge, "counts", SizeModel::ScaleOfInput(0.3));
    }
    b.client_output(merge, "output", SizeModel::Fixed(1.0));
    let wf = Arc::new(b.build().expect("valid workflow"));

    // FLU bodies: start splits, counts count, merge folds.
    let mut builder = ClusterRuntimeBuilder::new(Arc::clone(&wf)).register("wc_start", |ctx| {
        let text = String::from_utf8_lossy(ctx.input("text").expect("client text")).into_owned();
        let words: Vec<&str> = text.split_whitespace().collect();
        let shard = words.len().div_ceil(FAN_OUT);
        for i in 0..FAN_OUT {
            let lo = (i * shard).min(words.len());
            let hi = ((i + 1) * shard).min(words.len());
            // Mid-function DLU.Put: branch i's data flows while the
            // remaining shards are still being cut.
            ctx.put_to(
                "file",
                format!("wc_count_{i}"),
                Bytes::from(words[lo..hi].join(" ").into_bytes()),
            );
        }
    });
    for i in 0..FAN_OUT {
        builder = builder.register(format!("wc_count_{i}"), |ctx| {
            let shard = String::from_utf8_lossy(ctx.input("file").expect("shard")).into_owned();
            let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
            for w in shard.split_whitespace() {
                *counts.entry(w).or_default() += 1;
            }
            let table = counts
                .iter()
                .map(|(w, c)| format!("{w}\t{c}"))
                .collect::<Vec<_>>()
                .join("\n");
            ctx.put("counts", Bytes::from(table.into_bytes()));
        });
    }
    let rt = builder
        .register("wc_merge", |ctx| {
            let mut total: BTreeMap<String, u64> = BTreeMap::new();
            for payload in ctx.inputs_named("counts") {
                for line in String::from_utf8_lossy(payload).lines() {
                    let (w, c) = line.split_once('\t').expect("w\\tc");
                    *total.entry(w.to_owned()).or_default() += c.parse::<u64>().expect("count");
                }
            }
            let mut rows: Vec<(String, u64)> = total.into_iter().collect();
            rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let out = rows
                .iter()
                .map(|(w, c)| format!("{w}\t{c}"))
                .collect::<Vec<_>>()
                .join("\n");
            ctx.put("output", Bytes::from(out.into_bytes()));
        })
        .start()
        .expect("all functions registered");

    // Generate a deterministic corpus: Zipf-ish word frequencies.
    let vocab = [
        "serverless",
        "workflow",
        "dataflow",
        "function",
        "container",
        "latency",
        "throughput",
        "pipe",
        "sink",
        "engine",
    ];
    let mut corpus = String::new();
    for i in 0..20_000u64 {
        let idx = (i * 2654435761 % 100) as usize;
        let word = vocab[idx.min(99) * vocab.len() / 100];
        corpus.push_str(word);
        corpus.push(' ');
    }

    let t0 = Instant::now();
    let req = rt.invoke(vec![("text".into(), Bytes::from(corpus.into_bytes()))]);
    let outputs = rt
        .wait(req, Duration::from_secs(30))
        .expect("wordcount completes");
    let elapsed = t0.elapsed();

    let table = String::from_utf8_lossy(&outputs[0].1).into_owned();
    println!("top words:");
    for line in table.lines().take(5) {
        println!("  {line}");
    }
    let total: u64 = table
        .lines()
        .map(|l| l.rsplit('\t').next().unwrap().parse::<u64>().unwrap())
        .sum();
    println!("total words: {total}");
    println!("wall time:   {elapsed:?}");
    let stats = rt.stats();
    println!(
        "invocations: {}  puts: {}  deliveries: {}",
        stats.invocations, stats.puts, stats.deliveries
    );
    assert_eq!(total, 20_000);
    rt.shutdown();
}
