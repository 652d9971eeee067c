//! The composition of the NCAR Benchmark Suite: thirteen kernels and three
//! complete geophysical simulation codes, grouped into the paper's seven
//! categories (§4).

/// The seven categories of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Correctness of arithmetic and accuracy/performance of intrinsics.
    Correctness,
    /// Memory bandwidth tests.
    MemoryBandwidth,
    /// Coding style comparison — scalar versus vector processor.
    CodingStyle,
    /// Raw performance.
    RawPerformance,
    /// I/O to disk system and network.
    InputOutput,
    /// Production mix.
    ProductionMix,
    /// Complete applications.
    Applications,
}

impl Category {
    pub fn description(self) -> &'static str {
        match self {
            Category::Correctness => {
                "Correctness of basic floating point arithmetic as well as accuracy and performance of intrinsics"
            }
            Category::MemoryBandwidth => "Memory bandwidth tests",
            Category::CodingStyle => "Coding style comparison - scalar versus vector processor",
            Category::RawPerformance => "Raw performance",
            Category::InputOutput => "I/O to disk system and network",
            Category::ProductionMix => "Production mix",
            Category::Applications => "Complete applications",
        }
    }
}

/// One entry of the suite.
#[derive(Debug, Clone)]
pub struct SuiteEntry {
    /// The benchmark's name as the paper spells it.
    pub name: &'static str,
    pub category: Category,
    pub description: &'static str,
    /// Whether this entry is a kernel (13 of them) or an application (3).
    pub is_application: bool,
}

/// The full suite, in the paper's order.
pub fn suite() -> Vec<SuiteEntry> {
    use Category::*;
    vec![
        SuiteEntry {
            name: "PARANOIA",
            category: Correctness,
            description: "arithmetic operation test",
            is_application: false,
        },
        SuiteEntry {
            name: "ELEFUNT",
            category: Correctness,
            description: "elementary function test",
            is_application: false,
        },
        SuiteEntry {
            name: "COPY",
            category: MemoryBandwidth,
            description: "memory to memory",
            is_application: false,
        },
        SuiteEntry {
            name: "IA",
            category: MemoryBandwidth,
            description: "indirect addressing speed",
            is_application: false,
        },
        SuiteEntry {
            name: "XPOSE",
            category: MemoryBandwidth,
            description: "array transpose",
            is_application: false,
        },
        SuiteEntry {
            name: "RFFT",
            category: CodingStyle,
            description: "\"scalar\" FFT",
            is_application: false,
        },
        SuiteEntry {
            name: "VFFT",
            category: CodingStyle,
            description: "\"vectorized\" FFT",
            is_application: false,
        },
        SuiteEntry {
            name: "RADABS",
            category: RawPerformance,
            description: "processor performance",
            is_application: false,
        },
        SuiteEntry {
            name: "I/O",
            category: InputOutput,
            description: "memory to disk",
            is_application: false,
        },
        SuiteEntry {
            name: "HIPPI",
            category: InputOutput,
            description: "HIPPI throughput",
            is_application: false,
        },
        SuiteEntry {
            name: "NETWORK",
            category: InputOutput,
            description: "external network evaluation",
            is_application: false,
        },
        SuiteEntry {
            name: "PRODLOAD",
            category: ProductionMix,
            description: "simulated production job load",
            is_application: false,
        },
        SuiteEntry {
            name: "CCM2",
            category: Applications,
            description: "global climate model",
            is_application: true,
        },
        SuiteEntry {
            name: "MOM",
            category: Applications,
            description: "F77 ocean model",
            is_application: true,
        },
        SuiteEntry {
            name: "POP",
            category: Applications,
            description: "F90 ocean model",
            is_application: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_kernels_three_applications() {
        let s = suite();
        // The paper counts PRODLOAD among the 13 kernels; CCM2/MOM/POP are
        // the three complete applications.
        assert_eq!(s.iter().filter(|e| !e.is_application).count(), 12);
        assert_eq!(s.iter().filter(|e| e.is_application).count(), 3);
        assert_eq!(s.len(), 15);
    }

    #[test]
    fn seven_categories_all_used() {
        let s = suite();
        let mut cats: Vec<Category> = s.iter().map(|e| e.category).collect();
        cats.sort_by_key(|c| format!("{c:?}"));
        cats.dedup();
        assert_eq!(cats.len(), 7);
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = suite().iter().map(|e| e.name).collect();
        for expect in [
            "PARANOIA", "ELEFUNT", "COPY", "IA", "XPOSE", "RFFT", "VFFT", "RADABS", "I/O", "HIPPI",
            "NETWORK", "PRODLOAD", "CCM2", "MOM", "POP",
        ] {
            assert!(names.contains(&expect), "missing {expect}");
        }
    }

    #[test]
    fn categories_have_descriptions() {
        for e in suite() {
            assert!(!e.category.description().is_empty());
            assert!(!e.description.is_empty());
        }
    }
}
