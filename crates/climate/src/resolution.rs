//! CCM2 model resolutions (the paper's Table 4).
//!
//! Spectral models are named by triangular truncation wavenumber and
//! vertical level count: T42L18 uses a 64 x 128 Gaussian grid, 18 levels,
//! and a 20-minute timestep.

/// The five resolutions of Table 4, all with 18 levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolution {
    T42,
    T63,
    T85,
    T106,
    T170,
}

impl Resolution {
    /// All resolutions in Table 4 order.
    pub const ALL: [Resolution; 5] =
        [Resolution::T42, Resolution::T63, Resolution::T85, Resolution::T106, Resolution::T170];

    /// Triangular truncation wavenumber.
    pub(crate) fn truncation(self) -> usize {
        match self {
            Resolution::T42 => 42,
            Resolution::T63 => 63,
            Resolution::T85 => 85,
            Resolution::T106 => 106,
            Resolution::T170 => 170,
        }
    }

    /// Gaussian latitudes (Table 4's first grid dimension).
    pub fn nlat(self) -> usize {
        match self {
            Resolution::T42 => 64,
            Resolution::T63 => 96,
            Resolution::T85 => 128,
            Resolution::T106 => 160,
            Resolution::T170 => 256,
        }
    }

    /// Longitudes (Table 4's second grid dimension; always 2 x nlat).
    pub fn nlon(self) -> usize {
        2 * self.nlat()
    }

    /// Vertical levels ("L18").
    pub fn nlev(self) -> usize {
        18
    }

    /// Model timestep in minutes (Table 4).
    pub fn timestep_minutes(self) -> f64 {
        match self {
            Resolution::T42 => 20.0,
            Resolution::T63 => 12.0,
            Resolution::T85 => 10.0,
            Resolution::T106 => 7.5,
            Resolution::T170 => 5.0,
        }
    }

    /// Nominal grid spacing in degrees (Table 4).
    pub fn spacing_degrees(self) -> f64 {
        match self {
            Resolution::T42 => 2.8,
            Resolution::T63 => 2.1,
            Resolution::T85 => 1.4,
            Resolution::T106 => 1.1,
            Resolution::T170 => 0.7,
        }
    }

    /// Display name, e.g. "T42L18".
    pub fn name(self) -> String {
        format!("T{}L{}", self.truncation(), self.nlev())
    }

    /// Steps per simulated day.
    pub fn steps_per_day(self) -> usize {
        (24.0 * 60.0 / self.timestep_minutes()).round() as usize
    }

    /// Total grid columns.
    pub fn ncols(self) -> usize {
        self.nlat() * self.nlon()
    }

    /// History-tape bytes a model writes per model day: the daily average
    /// fields in 64-bit words plus header. At T63 this yields the ~15
    /// GB/year the paper reports for Table 5.
    pub fn history_bytes_per_day(self) -> u64 {
        // Daily-average history: eight 3D fields plus sixteen 2D
        // diagnostics; plus the day's restart record (six 3D fields).
        let history = 8 * self.nlev() + 16;
        let restart = 6 * self.nlev();
        ((history + restart) * self.ncols() * 8 + 64 * 1024) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_grid_sizes() {
        assert_eq!((Resolution::T42.nlat(), Resolution::T42.nlon()), (64, 128));
        assert_eq!((Resolution::T63.nlat(), Resolution::T63.nlon()), (96, 192));
        assert_eq!((Resolution::T85.nlat(), Resolution::T85.nlon()), (128, 256));
        assert_eq!((Resolution::T106.nlat(), Resolution::T106.nlon()), (160, 320));
        assert_eq!((Resolution::T170.nlat(), Resolution::T170.nlon()), (256, 512));
    }

    #[test]
    fn table4_time_steps() {
        assert_eq!(Resolution::T42.timestep_minutes(), 20.0);
        assert_eq!(Resolution::T106.timestep_minutes(), 7.5);
        assert_eq!(Resolution::T170.timestep_minutes(), 5.0);
        assert_eq!(Resolution::T42.steps_per_day(), 72);
        assert_eq!(Resolution::T170.steps_per_day(), 288);
    }

    #[test]
    fn names_and_levels() {
        assert_eq!(Resolution::T42.name(), "T42L18");
        for r in Resolution::ALL {
            assert_eq!(r.nlev(), 18);
        }
    }

    #[test]
    fn history_volume_near_15gb_per_year_at_t63() {
        let gb = (Resolution::T63.history_bytes_per_day() * 365) as f64 / 1e9;
        assert!((8.0..25.0).contains(&gb), "T63 yearly history {gb} GB vs paper's ~15 GB");
    }

    #[test]
    fn grid_supports_unaliased_truncation() {
        // The transform grid must satisfy nlat >= (3T+1)/2 to avoid
        // quadratic aliasing (the canonical spectral-model constraint).
        for r in Resolution::ALL {
            assert!(2 * r.nlat() > 3 * r.truncation(), "{}", r.name());
        }
    }
}
