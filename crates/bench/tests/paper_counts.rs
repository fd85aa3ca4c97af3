//! `BENCH_paper.json` is [`paper_counts`]'s output byte for byte, and its
//! `check_visits` rows keep the Section 4.2 complexity claim: an AVL
//! tree's height is logarithmic, the legacy check walks one root-to-leaf
//! path, and the contribution's interval query visits O(h + k) nodes.

use rma_bench::paper_counts;
use rma_substrate::json;

#[test]
fn counts_keep_their_bounds_and_match_the_checked_in_file() {
    let text = paper_counts();
    let doc = json::parse(&text).expect("paper_counts writes JSON");
    let rows = doc["check_visits"].as_array().expect("check_visits rows");
    assert_eq!(rows.len(), 13, "n = 2^4 ... 2^16");
    for row in rows {
        let field = |key: &str| row[key].as_u64().unwrap_or_else(|| panic!("{key} in {row:?}"));
        let (n, h, k) = (field("n"), field("height"), field("k"));
        assert!(h as f64 <= 1.45 * ((n + 2) as f64).log2(), "AVL height bound: {row:?}");
        assert_eq!(k, 1, "each probe overlaps one stored access: {row:?}");
        assert!(field("contribution_max") <= 2 * h + 2 * k, "interval query: {row:?}");
        assert!(field("legacy_max") <= h, "legacy path check: {row:?}");
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
    let checked_in = std::fs::read_to_string(path).expect("checked-in BENCH_paper.json");
    assert!(
        text == checked_in,
        "BENCH_paper.json is stale; regenerate it with \
         `cargo run --release -p rma-bench --bin repro_counts > BENCH_paper.json`"
    );
}
