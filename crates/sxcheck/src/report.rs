//! Diagnostics and the rendered report.
//!
//! Everything here is deterministic: diagnostics are value types, and
//! [`Report::render`] sorts them by (severity, code, region, message)
//! before printing, so the same op stream always produces byte-identical
//! output — a property the bench CLI's `check` subcommand relies on.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A ledger inconsistency or lock-order cycle — the simulation's
    /// accounting (or the program under test) is wrong.
    Error,
    /// A performance hazard: the code runs, but the SX-4 won't like it.
    Warning,
}

impl Severity {
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One finding, attributed to an FTRACE region (or a fixture/array name
/// when no region applies).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub severity: Severity,
    /// Stable lint code (`SXC001`…).
    pub code: &'static str,
    /// FTRACE region, fixture or array the finding is attributed to.
    pub region: String,
    /// What was observed.
    pub message: String,
    /// What to do about it (empty when there is no actionable advice).
    pub hint: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] `{}`: {}", self.severity.label(), self.code, self.region, self.message)?;
        if !self.hint.is_empty() {
            write!(f, "\n  hint: {}", self.hint)?;
        }
        Ok(())
    }
}

/// An ordered collection of findings from one analysis run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    diags: Vec<Diagnostic>,
}

impl Report {
    pub fn new() -> Report {
        Report::default()
    }

    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    pub fn extend(&mut self, ds: impl IntoIterator<Item = Diagnostic>) {
        self.diags.extend(ds);
    }

    /// The findings, in sorted (deterministic) order.
    pub fn diagnostics(&mut self) -> &[Diagnostic] {
        self.diags.sort();
        &self.diags
    }

    pub fn len(&self) -> usize {
        self.diags.len()
    }

    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    pub fn error_count(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Error).count()
    }

    pub fn warning_count(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// True if any finding has the given code.
    pub fn has_code(&self, code: &str) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Render the full report. Errors print before warnings; ties break on
    /// code, then region, then message, so output is byte-stable.
    pub fn render(&mut self) -> String {
        if self.diags.is_empty() {
            return "sxcheck: no findings\n".to_string();
        }
        let (errors, warnings) = (self.error_count(), self.warning_count());
        let mut out = format!(
            "sxcheck: {} finding{} ({} error{}, {} warning{})\n",
            self.diags.len(),
            if self.diags.len() == 1 { "" } else { "s" },
            errors,
            if errors == 1 { "" } else { "s" },
            warnings,
            if warnings == 1 { "" } else { "s" },
        );
        for d in self.diagnostics() {
            out.push_str(&format!("{d}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(sev: Severity, code: &'static str, region: &str) -> Diagnostic {
        Diagnostic {
            severity: sev,
            code,
            region: region.to_string(),
            message: "m".to_string(),
            hint: String::new(),
        }
    }

    #[test]
    fn render_is_sorted_and_counted() {
        let mut r = Report::new();
        r.push(diag(Severity::Warning, "SXC004", "b"));
        r.push(diag(Severity::Error, "SXC202", "a"));
        r.push(diag(Severity::Warning, "SXC001", "a"));
        let text = r.render();
        assert!(text.starts_with("sxcheck: 3 findings (1 error, 2 warnings)"));
        let e = text.find("SXC202").unwrap();
        let w1 = text.find("SXC001").unwrap();
        let w4 = text.find("SXC004").unwrap();
        assert!(e < w1 && w1 < w4, "errors first, then warnings by code:\n{text}");
    }

    #[test]
    fn render_is_deterministic() {
        let mut a = Report::new();
        let mut b = Report::new();
        for report in [&mut a, &mut b] {
            report.push(diag(Severity::Warning, "SXC002", "y"));
            report.push(diag(Severity::Warning, "SXC002", "x"));
        }
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn hint_prints_on_its_own_line() {
        let d = Diagnostic {
            severity: Severity::Warning,
            code: "SXC004",
            region: "r".into(),
            message: "bad stride".into(),
            hint: "pad it".into(),
        };
        assert_eq!(format!("{d}"), "warning[SXC004] `r`: bad stride\n  hint: pad it");
    }
}
