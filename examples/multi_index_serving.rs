//! Multi-index serving: one catalog directory, several named sharded
//! indexes, one query service.
//!
//! A location platform rarely has *one* dataset: here a fleet of urban
//! clients and a fleet of long-haul aircraft live as two named indexes
//! in the same [`IndexCatalog`] — sharing one page-file catalog and one
//! write-ahead log, so a single `commit()` lands updates to both indexes
//! atomically and a crash recovers both to the same batch boundary.
//!
//! Each index is hash-sharded across several physical trees
//! ([`ShardedIndex`]); queries scatter across the shards and gather an
//! answer byte-identical to a single tree. The [`QueryService`] then
//! serves a mixed request stream — range queries and top-k rankings,
//! naming either index per request — on the engine's worker pool, and
//! reports sustained qps with p50/p99 tail latency.
//!
//! ```text
//! cargo run --release --example multi_index_serving
//! ```

use utree_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("utree-multi-index-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- Build: two named indexes, different shard layouts, one catalog.
    let mut cat = IndexCatalog::<2>::create(&dir, 256)?;
    cat.create_index("clients", UCatalog::uniform(10), TreeConfig::default(), 4)?;
    cat.create_index("aircraft", UCatalog::uniform(10), TreeConfig::default(), 2)?;

    let clients = datagen::to_uniform_objects(&datagen::lb_points(5_000, 99), 250.0);
    let aircraft: Vec<_> = datagen::lb_dataset(1_200, 7)
        .into_iter()
        .enumerate()
        .map(|(i, o)| UncertainObject::new(900_000 + i as u64, o.pdf))
        .collect();
    for o in &clients {
        cat.get_mut("clients").unwrap().insert(o);
    }
    for o in &aircraft {
        cat.get_mut("aircraft").unwrap().insert(o);
    }
    // One durable commit covers BOTH indexes (single WAL marker).
    cat.flush()?;
    for def in cat.defs() {
        println!(
            "index {:?}: {} shards, {} objects",
            def.name,
            def.shard_count,
            cat.get(&def.name).unwrap().len()
        );
    }

    // --- Reopen cold, as a server process would after a restart/crash.
    drop(cat);
    let cat = IndexCatalog::<2>::open(&dir, 256)?;

    // --- A mixed request stream against both indexes.
    let mut requests = Vec::new();
    for i in 0..60 {
        let (name, anchor) = if i % 3 == 0 {
            ("aircraft", aircraft[i * 7 % aircraft.len()].mbr().center())
        } else {
            ("clients", clients[i * 11 % clients.len()].mbr().center())
        };
        let region = Rect::cube(&anchor, 1_200.0);
        if i % 2 == 0 {
            requests.push(ServiceRequest::Range {
                index: name.to_string(),
                query: Query::range(region)
                    .threshold(0.5)
                    .refine(Refine::monte_carlo(10_000, i as u64))
                    .build()?,
            });
        } else {
            requests.push(ServiceRequest::TopK {
                index: name.to_string(),
                query: Query::range(region)
                    .top(5)
                    .refine(Refine::monte_carlo(10_000, i as u64))
                    .build()?,
            });
        }
    }

    let service = QueryService::new(4, 8);
    let (replies, report) = service.serve(&cat, requests);
    let (mut ranges, mut topks) = (0usize, 0usize);
    for reply in &replies {
        match reply {
            ServiceReply::Range(out) => {
                ranges += 1;
                let _ = out.len();
            }
            ServiceReply::TopK(out) => {
                topks += 1;
                let _ = out.matches.len();
            }
            ServiceReply::Error(e) => return Err(e.clone().into()),
        }
    }
    println!(
        "served {} requests ({ranges} range, {topks} top-k) on {} workers",
        report.served,
        service.workers()
    );
    println!(
        "sustained {:.0} queries/s | p50 {:.2} ms | p99 {:.2} ms",
        report.queries_per_sec(),
        report.p50_nanos().unwrap_or(0) as f64 / 1e6,
        report.p99_nanos().unwrap_or(0) as f64 / 1e6,
    );

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
