//! The cycle/flop/byte ledger accumulated by every simulated operation.
//!
//! All simulated "time" in this workspace is derived from [`Cost::cycles`]
//! multiplied by the machine clock period — no wall clocks are consulted
//! anywhere, so every experiment is bit-reproducible.

/// Resource consumption of a simulated operation or of a whole run.
///
/// `cycles` is a float because analytic timing models legitimately produce
/// fractional average costs per element (e.g. a gather sustaining 3.2
/// words/cycle); totals over a kernel are large enough that the fraction is
/// irrelevant but summing floats avoids systematic rounding bias.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Processor cycles consumed.
    pub cycles: f64,
    /// Floating point operations actually performed (adds, multiplies,
    /// divides, each intrinsic call counted as one "call", not its guts).
    pub flops: u64,
    /// Cray-hardware-counter-equivalent flops: intrinsic calls weighted by
    /// the number of operations the vectorized Cray library routine would
    /// have executed. This is the convention behind the paper's
    /// "Cray Y-MP equivalent Mflops".
    pub cray_flops: f64,
    /// Bytes moved between processor and memory (reads + writes).
    pub bytes: u64,
}

impl Cost {
    /// A zeroed ledger.
    pub const ZERO: Cost = Cost { cycles: 0.0, flops: 0, cray_flops: 0.0, bytes: 0 };

    /// Ledger entry consisting of cycles only.
    pub fn cycles(cycles: f64) -> Cost {
        Cost { cycles, ..Cost::ZERO }
    }

    /// Accumulate another ledger into this one.
    pub fn add(&mut self, other: Cost) {
        self.cycles += other.cycles;
        self.flops += other.flops;
        self.cray_flops += other.cray_flops;
        self.bytes += other.bytes;
    }

    /// Seconds of simulated machine time at a given clock period.
    pub fn seconds(&self, clock_ns: f64) -> f64 {
        self.cycles * clock_ns * 1e-9
    }

    /// Megaflops (actual operations) at a given clock period.
    pub fn mflops(&self, clock_ns: f64) -> f64 {
        let s = self.seconds(clock_ns);
        if s == 0.0 {
            0.0
        } else {
            self.flops as f64 / s / 1e6
        }
    }

    /// Cray-equivalent megaflops at a given clock period.
    pub fn cray_mflops(&self, clock_ns: f64) -> f64 {
        let s = self.seconds(clock_ns);
        if s == 0.0 {
            0.0
        } else {
            self.cray_flops / s / 1e6
        }
    }
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost {
            cycles: self.cycles + rhs.cycles,
            flops: self.flops + rhs.flops,
            cray_flops: self.cray_flops + rhs.cray_flops,
            bytes: self.bytes + rhs.bytes,
        }
    }
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        self.add(rhs);
    }
}

impl std::iter::Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_zero() {
        assert_eq!(Cost::ZERO.cycles, 0.0);
        assert_eq!(Cost::ZERO.seconds(8.0), 0.0);
        assert_eq!(Cost::ZERO.mflops(8.0), 0.0);
        assert_eq!(Cost::ZERO.cray_mflops(8.0), 0.0);
    }

    #[test]
    fn seconds_scale_with_clock() {
        let c = Cost::cycles(1e9);
        assert!((c.seconds(8.0) - 8.0).abs() < 1e-12);
        assert!((c.seconds(9.2) - 9.2).abs() < 1e-12);
    }

    #[test]
    fn mflops_counts_actual_ops() {
        // 1e6 flops in 1e6 cycles at 10ns => 10ms => 100 Mflops.
        let c = Cost { cycles: 1e6, flops: 1_000_000, cray_flops: 2e6, bytes: 0 };
        assert!((c.mflops(10.0) - 100.0).abs() < 1e-9);
        assert!((c.cray_mflops(10.0) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn add_accumulates_all_fields() {
        let a = Cost { cycles: 1.0, flops: 2, cray_flops: 3.0, bytes: 4 };
        let b = Cost { cycles: 10.0, flops: 20, cray_flops: 30.0, bytes: 40 };
        let c = a + b;
        assert_eq!(c.cycles, 11.0);
        assert_eq!(c.flops, 22);
        assert_eq!(c.cray_flops, 33.0);
        assert_eq!(c.bytes, 44);
    }

    #[test]
    fn sum_over_iterator() {
        let costs = vec![Cost::cycles(1.0), Cost::cycles(2.0), Cost::cycles(3.0)];
        let total: Cost = costs.into_iter().sum();
        assert_eq!(total.cycles, 6.0);
    }
}
