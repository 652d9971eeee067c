//! Wall-clock benches for the kernel suite: host-native timing of the
//! real Rust computations behind Table 1, Table 3, Figure 5 and §4.4
//! (the simulated-machine numbers come from `ncar-bench`, not from here).
//!
//! Plain `fn main` harness (`harness = false`): each case is warmed up,
//! then timed over enough iterations to fill ~200 ms, reporting the mean.

use ncar_kernels::membw::{run_point, MembwKind};
use ncar_kernels::radabs::{radabs, radabs_mflops, NLEV};
use ncar_suite::Instance;
use othersuites::hint::run_hint;
use othersuites::linpack::linpack;
use othersuites::stream::{run_op, StreamOp};
use std::time::Instant;
use sxsim::{presets, Vm};

fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    f(); // warm-up
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed().as_millis() < 200 {
        std::hint::black_box(f());
        iters += 1;
    }
    let per = start.elapsed().as_secs_f64() / iters as f64;
    println!("{name:<40} {:>12.3} us/iter  ({iters} iters)", per * 1e6);
}

fn main() {
    let m = presets::sx4_benchmarked();
    for kind in [MembwKind::Copy, MembwKind::Ia, MembwKind::Xpose] {
        let inst = match kind {
            MembwKind::Xpose => Instance { n: 128, m: 8 },
            _ => Instance { n: 65_536, m: 4 },
        };
        bench(&format!("fig5_membw/{}/{}", kind.label(), inst.n), || run_point(&m, kind, inst, 1));
    }

    // `radabs_mflops` prices; the functional entry keeps the RADABS
    // arithmetic itself timed.
    for mach in [presets::sx4_benchmarked(), presets::cray_ymp(), presets::sparc20()] {
        bench(&format!("radabs/{}", mach.name), || radabs_mflops(&mach, 1024, 1));
    }
    bench("radabs_functional/sx4", || radabs(&mut Vm::new(m.clone()), 1024, NLEV));

    bench("table1/hint_sparc20_20k_splits", || run_hint(&presets::sparc20(), 20_000));
    bench("table1/linpack_n100_sx4", || linpack(&presets::sx4_benchmarked(), 100));
    bench("table1/stream_triad_sx4", || {
        run_op(&presets::sx4_benchmarked(), StreamOp::Triad, 200_000)
    });
}
