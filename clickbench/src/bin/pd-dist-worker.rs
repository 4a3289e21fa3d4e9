//! One node of the §4 computation tree, built inside the benchmark's own
//! package: the same entry point as `pd-dist`'s `pd-dist-worker` binary.

fn main() {
    std::process::exit(pd_dist::worker::worker_main());
}
