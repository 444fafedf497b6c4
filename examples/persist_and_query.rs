//! Disk mode: bulk-load an index, persist it to a page file, reopen it
//! cold, and watch the buffer pool work.
//!
//! The page file is the paper's storage model made concrete — one
//! 4096-byte page per R*-tree node, with a checksummed header and a
//! CRC-32 per page. Reopened, every node access routes through an LRU
//! buffer pool: a miss is a physical, checksum-verified page read, a
//! hit is free. Logical I/O (the paper's metric) is identical to the
//! in-memory index either way; only the physical/hit split changes
//! with pool capacity.
//!
//! Run with: `cargo run --example persist_and_query`

use nwc::prelude::*;

fn main() {
    // A synthetic city at paper-like density.
    let dataset = Dataset::ca_like(2016);
    let n_objects = dataset.len();
    let index = NwcIndex::build(dataset.points);

    // ---- persist -----------------------------------------------------
    let path = std::env::temp_dir().join("nwc-example.pages");
    index.save_tree(&path).expect("saving the page file");
    let bytes = std::fs::metadata(&path).expect("stat").len();
    println!(
        "saved {n_objects} objects as {} ({} KiB, {} pages)",
        path.display(),
        bytes / 1024,
        bytes / 4096,
    );
    drop(index);

    // ---- reopen cold, with a pool a quarter the file's size ----------
    let pages = (bytes / 4096) as usize;
    let config = DiskIndexConfig {
        pool_capacity: Some((pages / 4).max(1)),
        ..Default::default()
    };
    let disk = NwcIndex::open_disk(&path, config).expect("reopening the page file");
    let storage = disk.tree().storage().expect("disk-backed");
    println!(
        "reopened cold: pool capacity {} of {pages} pages\n",
        storage.pool_stats().capacity,
    );

    // ---- query -------------------------------------------------------
    let q = Point::new(5_000.0, 5_000.0);
    let req = SearchRequest::nwc(NwcQuery::new(q, WindowSpec::square(200.0), 8), Scheme::NWC_STAR);
    let mut scratch = QueryScratch::new();
    for pass in ["cold", "warm"] {
        let before = storage.pool_stats();
        let outcome = disk.search(&req, &mut scratch).expect("the page file reads back");
        let result = outcome.nwc();
        let after = storage.pool_stats();
        let (phys, hits) = (after.misses - before.misses, after.hits - before.hits);
        let logical = phys + hits;
        match result {
            Some(r) => println!(
                "{pass} NWC*: group {:?} at distance {:.1}",
                r.ids(),
                r.distance
            ),
            None => println!("{pass} NWC*: no qualifying window"),
        }
        println!(
            "  {logical} node accesses = {phys} physical page reads + {hits} buffer hits \
             ({:.0}% hit rate)\n",
            if logical > 0 { hits as f64 / logical as f64 * 100.0 } else { 0.0 },
        );
    }

    let total = storage.pool_stats();
    println!(
        "totals: {} physical reads, {} hits, {} evictions, {} pages resident",
        total.misses, total.hits, total.evictions, total.resident,
    );
    println!(
        "peak resident decoded nodes: {} (pool capacity {} bounds memory, \
         not just pages)",
        storage.peak_resident_nodes(),
        total.capacity,
    );
    std::fs::remove_file(&path).ok();
}
