//! Table 3: the hotspot traffic configuration, printed from the live flow
//! set used by the Figure 9 experiment.

use footprint_stats::Table;
use footprint_traffic::TABLE3;

fn main() {
    println!("Table 3 — hotspot traffic flows (8x8 mesh)\n");
    let mut t = Table::new(["flow", "source", "destination"]);
    for (i, (src, dest)) in TABLE3.iter().enumerate() {
        t.row([format!("f{}", i + 1), src.to_string(), dest.to_string()]);
    }
    println!("{}", t.render());
    println!("Background: uniform random at 0.30 flits/node/cycle from all other nodes.");
    println!("Latency is measured on the background traffic only (paper §4.2.5).");
}
