//! # ncar-kernels — the kernel benchmarks of the NCAR suite
//!
//! Rust ports of the suite's kernels, each computing real results through
//! the `sxsim` facade so that correctness and simulated performance come
//! from the same code:
//!
//! - [`paranoia`] — arithmetic-operation correctness (Kahan);
//! - [`elefunt`] — intrinsic accuracy + Mcalls/s throughput (Cody + the
//!   paper's performance extension; Table 3);
//! - [`membw`] — COPY / IA / XPOSE memory-bandwidth ladders (Figure 5);
//! - [`mod@fft`] — FFTPACK-style mixed-radix real FFTs in the two loop orders
//!   RFFT and VFFT (Figures 6 and 7);
//! - [`mod@radabs`] — the CCM2 radiation-physics raw-performance kernel
//!   (865.9 Cray-equivalent Mflops on the benchmarked SX-4/1).

pub mod elefunt;
pub mod fft;
pub mod membw;
mod once;
pub mod paranoia;
pub mod radabs;

pub use fft::{fft, irfft, rfft_spectrum, Direction, LoopOrder, C64};
pub use membw::MembwKind;
pub use radabs::{radabs, radabs_mflops, NLEV};
