//! A small ordered name → value registry with case-insensitive lookup.
//!
//! The suite harness and the `sxd` daemon both need to resolve benchmark
//! names arriving as text (CLI arguments, wire requests) to runnable
//! entries. Registration order is preserved so listings are deterministic,
//! and lookup is case-insensitive because the paper spells benchmark names
//! in caps ("RADABS") while the CLI uses lowercase experiment names.

/// Ordered name → `T` map. Linear scan: registries hold tens of entries.
#[derive(Debug, Clone)]
pub struct Registry<T> {
    entries: Vec<(String, T)>,
}

impl<T> Registry<T> {
    pub fn new() -> Registry<T> {
        Registry { entries: Vec::new() }
    }

    /// Register `name`; replaces and returns any previous entry under the
    /// same (case-insensitive) name, keeping its position.
    pub fn register(&mut self, name: impl Into<String>, value: T) -> Option<T> {
        let name = name.into();
        if let Some(slot) = self.entries.iter_mut().find(|(n, _)| n.eq_ignore_ascii_case(&name)) {
            return Some(std::mem::replace(&mut slot.1, value));
        }
        self.entries.push((name, value));
        None
    }

    /// Case-insensitive lookup.
    pub fn get(&self, name: &str) -> Option<&T> {
        self.entries.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v)
    }
}

impl<T> Default for Registry<T> {
    fn default() -> Registry<T> {
        Registry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names<T>(r: &Registry<T>) -> Vec<&str> {
        r.entries.iter().map(|(n, _)| n.as_str()).collect()
    }

    #[test]
    fn register_lookup_and_order() {
        let mut r = Registry::new();
        assert!(r.entries.is_empty());
        assert_eq!(r.register("fig5", 1), None);
        assert_eq!(r.register("RADABS", 2), None);
        assert_eq!(r.get("fig5"), Some(&1));
        assert_eq!(r.get("radabs"), Some(&2));
        assert_eq!(r.get("Fig5"), Some(&1));
        assert_eq!(r.get("pop"), None);
        assert_eq!(names(&r), vec!["fig5", "RADABS"]);
    }

    #[test]
    fn reregistration_replaces_in_place() {
        let mut r = Registry::new();
        r.register("a", 1);
        r.register("b", 2);
        assert_eq!(r.register("A", 10), Some(1));
        assert_eq!(names(&r), vec!["a", "b"]);
        assert_eq!(r.get("a"), Some(&10));
    }
}
