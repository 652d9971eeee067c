//! The three memory-bandwidth kernels of §4.2: COPY (unit-stride
//! memory-to-memory), IA (indirect-address gather) and XPOSE (matrix
//! transposition / scatter).
//!
//! Each kernel performs the paper's exact loop nest on real data through
//! the [`Vm`] facade and reports bandwidth counting only the elements of
//! `a` moved to `b` — "we only count the elements of the array a being
//! moved to the array b and not the index values used" (§4.2.3).

use ncar_suite::{best_of, Instance, Series, SmallRng};
use sxsim::{Cost, MachineModel, Vm};

/// Result of one (N, M) instance of a memory kernel.
#[derive(Debug, Clone, Copy)]
pub struct MembwPoint {
    /// Best-of-KTRIES cost.
    #[cfg(test)]
    pub(crate) cost: Cost,
    /// Reported bandwidth in MB/s, counting 16 bytes per element moved
    /// (the element is read from `a` and written to `b`).
    pub mb_per_s: f64,
}

fn bandwidth(cost: Cost, elements: usize, clock_ns: f64) -> f64 {
    let seconds = cost.seconds(clock_ns);
    if seconds == 0.0 {
        return 0.0;
    }
    // One read + one write of each 8-byte element.
    (elements as f64 * 16.0) / seconds / 1e6
}

/// COPY: `b(i,j) = a(i,j)` — both loops unit stride in `i`.
///
/// ```fortran
/// do j=1,M
///    do i=1,N
///       b(i,j)=a(i,j)
///    end do
/// end do
/// ```
pub fn copy_kernel(vm: &mut Vm, inst: Instance) -> Cost {
    let Instance { n, m } = inst;
    let a: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
    let mut b = vec![0.0f64; n];
    vm.copy(&mut b, &a);
    debug_assert_eq!(b[n - 1], a[n - 1]);
    // The M instances are identical columns; execute one functionally and
    // charge M of them.
    scale_cost(vm.take_cost(), m)
}

/// IA: `b(i,j) = a(indx(i),j)` — a gather through a shuffled index vector.
pub fn ia_kernel(vm: &mut Vm, inst: Instance, seed: u64) -> Cost {
    let Instance { n, m } = inst;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut idx);
    let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut b = vec![0.0f64; n];
    vm.gather(&mut b, &a, &idx);
    // Functional check: a gather through a permutation preserves the set.
    debug_assert_eq!(b.iter().map(|&x| x as usize).max(), Some(n - 1));
    let one = vm.take_cost();
    scale_cost(one, m)
}

/// XPOSE: `b(i,j,k) = a(j,i,k)` — an N x N transposition per instance; the
/// store side runs at stride N.
pub fn xpose_kernel(vm: &mut Vm, inst: Instance) -> Cost {
    let Instance { n, m } = inst;
    let a: Vec<f64> = (0..n * n).map(|i| i as f64).collect();
    let mut b = vec![0.0f64; n * n];
    vm.transpose(&mut b, &a, n);
    debug_assert_eq!(b[1], a[n]);
    let one = vm.take_cost();
    scale_cost(one, m)
}

/// Multiply a per-instance cost by the instance count. The M instances are
/// data-identical, so executing one functionally and charging M preserves
/// both correctness checking and the paper's timing structure.
fn scale_cost(c: Cost, m: usize) -> Cost {
    Cost {
        cycles: c.cycles * m as f64,
        flops: c.flops * m as u64,
        cray_flops: c.cray_flops * m as f64,
        bytes: c.bytes * m as u64,
    }
}

/// Fixed seed for the IA index shuffle, so runs are reproducible.
const IA_SEED: u64 = 0x6e63_6172; // "ncar"

/// Which of the three kernels to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembwKind {
    Copy,
    Ia,
    Xpose,
}

impl MembwKind {
    pub fn label(self) -> &'static str {
        match self {
            MembwKind::Copy => "COPY",
            MembwKind::Ia => "IA",
            MembwKind::Xpose => "XPOSE",
        }
    }
}

/// Run one kernel instance with KTRIES best-of and report bandwidth.
pub fn run_point(
    model: &MachineModel,
    kind: MembwKind,
    inst: Instance,
    ktries: usize,
) -> MembwPoint {
    let clock = model.clock_ns;
    let cost = best_of(ktries, || {
        let mut vm = Vm::new(model.clone());
        match kind {
            MembwKind::Copy => copy_kernel(&mut vm, inst),
            MembwKind::Ia => ia_kernel(&mut vm, inst, IA_SEED),
            MembwKind::Xpose => xpose_kernel(&mut vm, inst),
        }
    });
    let elements = match kind {
        MembwKind::Copy | MembwKind::Ia => inst.n * inst.m,
        MembwKind::Xpose => inst.n * inst.n * inst.m,
    };
    MembwPoint {
        #[cfg(test)]
        cost,
        mb_per_s: bandwidth(cost, elements, clock),
    }
}

/// Sweep a kernel over its constant-volume ladder, producing one curve of
/// Figure 5. Ladder points are independent, so they run host-parallel;
/// results stay in ladder order.
pub fn sweep(model: &MachineModel, kind: MembwKind, ladder: &[Instance], ktries: usize) -> Series {
    let points: Vec<(f64, f64)> = ncar_suite::par_map(ladder.to_vec(), |inst| {
        let p = run_point(model, kind, inst, ktries);
        (inst.n as f64, p.mb_per_s)
    });
    let mut s = Series::new(kind.label(), "N", "MB/sec");
    for (x, y) in points {
        s.push(x, y);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncar_suite::constant_volume_ladder;
    use sxsim::presets;

    fn inst(n: usize, m: usize) -> Instance {
        Instance { n, m }
    }

    #[test]
    fn copy_bandwidth_reasonable_on_sx4() {
        let m = presets::sx4_benchmarked();
        let p = run_point(&m, MembwKind::Copy, inst(100_000, 10), 2);
        // The 16 GB/s port bounds the copy; expect several GB/s sustained.
        assert!(p.mb_per_s > 4_000.0, "copy too slow: {} MB/s", p.mb_per_s);
        assert!(p.mb_per_s < 16_000.0, "copy beats the port: {} MB/s", p.mb_per_s);
    }

    #[test]
    fn copy_far_exceeds_ia_and_xpose_on_sx4() {
        // The headline qualitative result of Figure 5.
        let m = presets::sx4_benchmarked();
        let c = run_point(&m, MembwKind::Copy, inst(65_536, 16), 2);
        let g = run_point(&m, MembwKind::Ia, inst(65_536, 16), 2);
        let x = run_point(&m, MembwKind::Xpose, inst(256, 16), 2);
        assert!(c.mb_per_s > 2.0 * g.mb_per_s, "COPY {} vs IA {}", c.mb_per_s, g.mb_per_s);
        assert!(c.mb_per_s > 1.5 * x.mb_per_s, "COPY {} vs XPOSE {}", c.mb_per_s, x.mb_per_s);
    }

    #[test]
    fn small_n_much_slower_than_large_n() {
        let m = presets::sx4_benchmarked();
        let small = run_point(&m, MembwKind::Copy, inst(4, 250_000), 1);
        let large = run_point(&m, MembwKind::Copy, inst(1_000_000, 1), 1);
        assert!(large.mb_per_s > 5.0 * small.mb_per_s);
    }

    #[test]
    fn sweep_produces_full_ladder() {
        let m = presets::sx4_benchmarked();
        let ladder = constant_volume_ladder(4096);
        let s = sweep(&m, MembwKind::Copy, &ladder, 1);
        assert_eq!(s.points.len(), ladder.len());
        assert!(s.peak() > 0.0);
    }

    #[test]
    fn cache_machine_much_slower_than_sx4() {
        let sx = presets::sx4_benchmarked();
        let sp = presets::sparc20();
        let i = inst(100_000, 10);
        let a = run_point(&sx, MembwKind::Copy, i, 1);
        let b = run_point(&sp, MembwKind::Copy, i, 1);
        assert!(a.mb_per_s > 20.0 * b.mb_per_s);
    }

    #[test]
    fn xpose_power_of_two_stride_penalty() {
        // Power-of-two matrix orders collide in the banks; the neighbouring
        // odd order should not be slower.
        let m = presets::sx4_benchmarked();
        let pow2 = run_point(&m, MembwKind::Xpose, inst(512, 4), 1);
        let odd = run_point(&m, MembwKind::Xpose, inst(511, 4), 1);
        assert!(odd.mb_per_s >= pow2.mb_per_s);
    }

    #[test]
    fn volume_accounting_counts_only_data() {
        // 16 bytes per element (read + write), no index traffic in MB/s.
        let m = presets::sx4_benchmarked();
        let p = run_point(&m, MembwKind::Ia, inst(1000, 1), 1);
        let secs = p.cost.seconds(m.clock_ns);
        let implied = p.mb_per_s * 1e6 * secs / 16.0;
        assert!((implied - 1000.0).abs() < 1.0);
        // ...but the ledger does see the index words.
        assert!(p.cost.bytes > 16 * 1000);
    }
}
