//! Code 2 (Figure 8b, Section 4.2): a one-sided communication in a loop.
//!
//! `for(i=0..1000) Get(buf[i],1,X); Get(buf[0],1,X)` — the legacy tree
//! holds one node per dynamic access while the merging pass collapses all
//! loop accesses into a single node per side.
//!
//! The paper counts 5,002 nodes for the legacy tool because its
//! instrumentation also records the loop variable `i` (4 accesses per
//! iteration); our simulator does not model register-allocated scalars
//! (LLVM's alias analysis would typically remove them), so the legacy
//! count here is the loop's RMA accesses: 2 records (origin+target) per
//! get. The contribution's count matches the paper's "size two" claim
//! shape: one merged node per access population. The same counts are
//! the `code2` rows of `BENCH_paper.json` ([`rma_bench::code2`]).

use rma_apps::Method;
use rma_bench::{code2, Table};

fn main() {
    println!("Code 2 (Figure 8b): 1,000-iteration MPI_Get loop + one extra get\n");
    let mut t = Table::new(&["method", "BST nodes (peak)", "accesses recorded"]);
    for method in [Method::Legacy, Method::FragmentOnly, Method::Contribution] {
        let (nodes, recorded) = code2(method);
        t.row(&[method.name().to_string(), nodes.to_string(), recorded.to_string()]);
    }
    t.print();
    println!(
        "\npaper: legacy BST has 5,002 nodes (incl. loop-variable accesses);\n\
         the merging algorithm reduces the loop's accesses to a single node\n\
         per side (\"the merging algorithm updates the BST which is of size two\")."
    );
}
