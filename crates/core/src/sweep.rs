//! Parameter-sweep generators for the suite's "constant data volume"
//! design.
//!
//! The memory benchmarks vary the axis length N while choosing the
//! instance count M so the amount of data moved stays roughly constant —
//! "at one extreme there are many small arrays being manipulated and at the
//! other extreme a few large arrays are being operated on" (paper §4.2).
//! The FFT benchmarks use the explicit axis-length sets of §4.3.

/// One (N, M) point of a constant-volume ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instance {
    /// Axis length (copy/gather axis, FFT length, or matrix order).
    pub n: usize,
    /// Instance count (outer loop trip count).
    pub m: usize,
}

impl Instance {}

/// COPY/IA ladder: N sweeps 1..=10^6 in octave steps, M chosen so that
/// N*M ~ `volume` (paper: 10^6 elements).
pub fn constant_volume_ladder(volume: usize) -> Vec<Instance> {
    let mut out = Vec::new();
    let mut n = 1usize;
    while n <= volume {
        let m = (volume / n).max(1);
        out.push(Instance { n, m });
        n *= 2;
    }
    // Always include the single-large-array endpoint exactly.
    if out.last().map(|i| i.n) != Some(volume) {
        out.push(Instance { n: volume, m: 1 });
    }
    out
}

/// XPOSE ladder: matrix order N sweeps 2..=10^3, M chosen so N^2*M is
/// roughly constant (paper: M from 250,000 down to 1, i.e. ~10^6 elements).
pub fn xpose_ladder(volume: usize, max_n: usize) -> Vec<Instance> {
    let mut out = Vec::new();
    let mut n = 2usize;
    while n <= max_n {
        let m = (volume / (n * n)).max(1);
        out.push(Instance { n, m });
        n *= 2;
    }
    if out.last().map(|i| i.n) != Some(max_n) {
        out.push(Instance { n: max_n, m: (volume / (max_n * max_n)).max(1) });
    }
    out
}

/// The three FFT-length families of §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FftFamily {
    /// N = 2^n.
    PowerOfTwo,
    /// N = 3 * 2^n.
    FactorThree,
    /// N = 5 * 2^n.
    FactorFive,
}

impl FftFamily {
    pub const ALL: [FftFamily; 3] =
        [FftFamily::PowerOfTwo, FftFamily::FactorThree, FftFamily::FactorFive];

    pub fn label(self) -> &'static str {
        match self {
            FftFamily::PowerOfTwo => "N = 2^n",
            FftFamily::FactorThree => "N = 3*2^n",
            FftFamily::FactorFive => "N = 5*2^n",
        }
    }

    /// RFFT axis lengths for this family (paper: n = 1..10 for 2^n,
    /// n = 0..8 for the mixed families).
    pub(crate) fn rfft_lengths(self) -> Vec<usize> {
        match self {
            FftFamily::PowerOfTwo => (1..=10).map(|n| 1usize << n).collect(),
            FftFamily::FactorThree => (0..=8).map(|n| 3 * (1usize << n)).collect(),
            FftFamily::FactorFive => (0..=8).map(|n| 5 * (1usize << n)).collect(),
        }
    }

    /// VFFT axis lengths (paper: n = 2,4,6,7,8,9 for 2^n; n = 0,2,4,6,8
    /// for the mixed families).
    pub fn vfft_lengths(self) -> Vec<usize> {
        match self {
            FftFamily::PowerOfTwo => [2, 4, 6, 7, 8, 9].iter().map(|&n| 1usize << n).collect(),
            FftFamily::FactorThree => [0, 2, 4, 6, 8].iter().map(|&n| 3 * (1usize << n)).collect(),
            FftFamily::FactorFive => [0, 2, 4, 6, 8].iter().map(|&n| 5 * (1usize << n)).collect(),
        }
    }
}

/// RFFT instance counts: M keeps ~`volume` elements overall (paper:
/// ~10^6, "M varied from 500,000 to 800 depending on size of N").
pub fn rfft_instances(family: FftFamily, volume: usize) -> Vec<Instance> {
    family
        .rfft_lengths()
        .into_iter()
        .map(|n| Instance { n, m: (volume / n).clamp(1, 500_000) })
        .collect()
}

/// VFFT vector lengths from the paper: M = 1, 2, 5, 10, 20, 50, 100, 200, 500.
pub const VFFT_M: [usize; 9] = [1, 2, 5, 10, 20, 50, 100, 200, 500];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_spans_full_range() {
        let l = constant_volume_ladder(1_000_000);
        assert_eq!(l.first().unwrap().n, 1);
        assert_eq!(l.last().unwrap().n, 1_000_000);
        assert_eq!(l.last().unwrap().m, 1);
    }

    #[test]
    fn ladder_volume_roughly_constant() {
        for i in constant_volume_ladder(1_000_000) {
            let v = i.n * i.m;
            assert!((500_000..=2_000_000).contains(&v), "volume {v} drifted at n={}", i.n);
        }
    }

    #[test]
    fn xpose_ladder_shape() {
        let l = xpose_ladder(1_000_000, 1000);
        assert_eq!(l.first().unwrap().n, 2);
        assert_eq!(l.first().unwrap().m, 250_000); // paper's M upper end
        assert_eq!(l.last().unwrap().n, 1000);
        assert_eq!(l.last().unwrap().m, 1);
    }

    #[test]
    fn rfft_lengths_match_paper() {
        assert_eq!(
            FftFamily::PowerOfTwo.rfft_lengths(),
            vec![2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
        );
        assert_eq!(FftFamily::FactorThree.rfft_lengths()[0], 3);
        assert_eq!(*FftFamily::FactorFive.rfft_lengths().last().unwrap(), 5 * 256);
    }

    #[test]
    fn vfft_lengths_match_paper() {
        assert_eq!(FftFamily::PowerOfTwo.vfft_lengths(), vec![4, 16, 64, 128, 256, 512]);
        assert_eq!(FftFamily::FactorThree.vfft_lengths(), vec![3, 12, 48, 192, 768]);
        assert_eq!(FftFamily::FactorFive.vfft_lengths(), vec![5, 20, 80, 320, 1280]);
    }

    #[test]
    fn vfft_max_length_is_1280_as_stated() {
        // "The size of the FFT axis to be transformed ranges from 2 to 1280."
        let max = FftFamily::ALL.iter().flat_map(|f| f.vfft_lengths()).max().unwrap();
        assert_eq!(max, 1280);
    }

    #[test]
    fn rfft_instance_bounds_match_paper() {
        let all: Vec<Instance> =
            FftFamily::ALL.iter().flat_map(|&f| rfft_instances(f, 1_000_000)).collect();
        let max_m = all.iter().map(|i| i.m).max().unwrap();
        let min_m = all.iter().map(|i| i.m).min().unwrap();
        assert_eq!(max_m, 500_000, "paper: M up to 500,000");
        assert!((780..=1000).contains(&min_m), "paper: M down to ~800, got {min_m}");
    }
}
