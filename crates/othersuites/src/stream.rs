//! STREAM (McCalpin), §3.4 — the four long-vector memory operations.
//!
//! The paper contrasts STREAM with the NCAR suite: STREAM's COPY is "similar
//! to the COPY benchmark in the NCAR suite except that the array size is
//! fixed" and STREAM takes "only a single bandwidth measurement ... instead
//! of testing bandwidth for a range of array sizes", and measures no
//! irregular access at all. Implementing it here makes that comparison
//! executable.

use sxsim::{MachineModel, Vm};

/// The four STREAM operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOp {
    /// c = a
    Copy,
    /// b = s*c
    Scale,
    /// c = a + b
    Add,
    /// a = b + s*c
    Triad,
}

impl StreamOp {
    pub const ALL: [StreamOp; 4] =
        [StreamOp::Copy, StreamOp::Scale, StreamOp::Add, StreamOp::Triad];

    pub fn name(self) -> &'static str {
        match self {
            StreamOp::Copy => "Copy",
            StreamOp::Scale => "Scale",
            StreamOp::Add => "Add",
            StreamOp::Triad => "Triad",
        }
    }

    /// Bytes counted per iteration by STREAM's convention.
    pub(crate) fn bytes_per_iter(self) -> usize {
        match self {
            StreamOp::Copy | StreamOp::Scale => 16,
            StreamOp::Add | StreamOp::Triad => 24,
        }
    }
}

/// STREAM's fixed array length (the classic 2,000,000-element default).
pub(crate) const STREAM_N: usize = 2_000_000;

/// One result row.
#[derive(Debug, Clone, Copy)]
pub struct StreamResult {
    pub op: StreamOp,
    pub mb_per_s: f64,
}

/// Run one STREAM operation of length `n` on `model`.
pub fn run_op(model: &MachineModel, op: StreamOp, n: usize) -> StreamResult {
    let mut vm = Vm::new(model.clone());
    let a: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let b: Vec<f64> = (0..n).map(|i| 2.0 + (i % 5) as f64).collect();
    let mut c = vec![0.0f64; n];
    let s = 3.0;
    match op {
        StreamOp::Copy => {
            vm.copy(&mut c, &a);
            assert_eq!(c[n - 1], a[n - 1]);
        }
        StreamOp::Scale => {
            vm.scale(&mut c, s, &b);
            assert_eq!(c[0], s * b[0]);
        }
        StreamOp::Add => {
            vm.add(&mut c, &a, &b);
            assert_eq!(c[0], a[0] + b[0]);
        }
        StreamOp::Triad => {
            c.copy_from_slice(&a);
            vm.axpy(&mut c, s, &b);
            assert_eq!(c[0], a[0] + s * b[0]);
        }
    }
    let secs = vm.seconds();
    StreamResult { op, mb_per_s: (op.bytes_per_iter() * n) as f64 / secs / 1e6 }
}

/// The full STREAM table at the standard size.
pub fn stream_table(model: &MachineModel) -> Vec<StreamResult> {
    StreamOp::ALL.iter().map(|&op| run_op(model, op, STREAM_N)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::presets;

    #[test]
    fn sx4_sustains_multi_gb_per_s() {
        for r in stream_table(&presets::sx4_benchmarked()) {
            assert!(r.mb_per_s > 3_000.0, "{}: {} MB/s", r.op.name(), r.mb_per_s);
            assert!(r.mb_per_s < 20_000.0, "{}: beats the port", r.op.name());
        }
    }

    #[test]
    fn triad_not_faster_than_copy_in_bandwidth_terms() {
        let t = stream_table(&presets::sx4_benchmarked());
        let get = |op: StreamOp| t.iter().find(|r| r.op == op).unwrap().mb_per_s;
        // Triad moves 3 streams; with a fixed port it cannot beat copy by
        // more than the counting convention allows.
        assert!(get(StreamOp::Triad) <= 1.6 * get(StreamOp::Copy));
    }

    #[test]
    fn vector_machine_dwarfs_workstation() {
        let sx = run_op(&presets::sx4_benchmarked(), StreamOp::Triad, 200_000);
        let sp = run_op(&presets::sparc20(), StreamOp::Triad, 200_000);
        assert!(sx.mb_per_s > 50.0 * sp.mb_per_s);
    }

    #[test]
    fn ymp_between_workstation_and_sx4() {
        let sx = run_op(&presets::sx4_benchmarked(), StreamOp::Add, 200_000);
        let ymp = run_op(&presets::cray_ymp(), StreamOp::Add, 200_000);
        let sp = run_op(&presets::sparc20(), StreamOp::Add, 200_000);
        assert!(sx.mb_per_s > ymp.mb_per_s && ymp.mb_per_s > sp.mb_per_s);
    }
}
