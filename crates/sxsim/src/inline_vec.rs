//! A tiny fixed-capacity inline vector for hot-path descriptors.
//!
//! [`crate::VecOp`] is constructed millions of times per benchmark run;
//! holding its access lists in `Vec` meant two heap allocations per
//! descriptor. `InlineVec<T, N>` stores up to `N` elements inline — no
//! allocator, `Copy` when `T: Copy` — which is all a vector operation
//! needs: no machine here has more than a handful of memory streams per
//! instruction. The type is deliberately minimal (build from a slice,
//! push, deref to `[T]`); it is a descriptor holder, not a collection
//! library.

use std::ops::Deref;

/// Up to `N` elements of `T` stored inline; the live prefix is the value.
#[derive(Debug, Clone, Copy)]
pub struct InlineVec<T, const N: usize> {
    data: [T; N],
    len: u8,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Empty list.
    pub fn new() -> InlineVec<T, N> {
        assert!(N <= u8::MAX as usize, "InlineVec capacity must fit in a u8");
        InlineVec { data: [T::default(); N], len: 0 }
    }

    /// Copy a slice in. Panics if `items.len() > N` — descriptor widths
    /// are static properties of call sites, so overflow is a programming
    /// error, not a runtime condition.
    pub fn from_slice(items: &[T]) -> InlineVec<T, N> {
        assert!(items.len() <= N, "InlineVec<_, {N}> cannot hold {} items", items.len());
        let mut v = InlineVec::new();
        v.data[..items.len()].copy_from_slice(items);
        v.len = items.len() as u8;
        v
    }

    /// Append one element. Panics when full (same contract as
    /// [`InlineVec::from_slice`]).
    pub fn push(&mut self, item: T) {
        assert!((self.len as usize) < N, "InlineVec<_, {N}> is full");
        self.data[self.len as usize] = item;
        self.len += 1;
    }

    /// The live prefix.
    pub fn as_slice(&self) -> &[T] {
        &self.data[..self.len as usize]
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> InlineVec<T, N> {
        InlineVec::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data[..self.len as usize]
    }
}

/// Equality is over the live prefix only; dead tail slots never compare.
impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &InlineVec<T, N>) -> bool {
        self[..] == other[..]
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

/// Hashing, like equality, covers the live prefix only.
impl<T: std::hash::Hash, const N: usize> std::hash::Hash for InlineVec<T, N> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> InlineVec<T, N> {
        let mut v = InlineVec::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_roundtrip_and_deref() {
        let v: InlineVec<u32, 4> = InlineVec::from_slice(&[1, 2, 3]);
        assert_eq!(v.len(), 3);
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        assert_eq!(v.iter().sum::<u32>(), 6);
        assert_eq!(v.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn equality_ignores_dead_tail() {
        let mut a: InlineVec<u32, 4> = InlineVec::from_slice(&[7, 8, 9]);
        let b: InlineVec<u32, 4> = InlineVec::from_slice(&[7, 8]);
        assert_ne!(a, b);
        // Rebuild `a` with the same live prefix as `b` but different
        // (dead) history in slot 2.
        a = InlineVec::from_slice(&a[..2]);
        assert_eq!(a, b);
    }

    #[test]
    fn push_and_copy_semantics() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        v.push(5);
        let copy = v; // Copy, not move
        v.push(6);
        assert_eq!(v.as_slice(), &[5, 6]);
        assert_eq!(copy.as_slice(), &[5]);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn overflowing_from_slice_panics() {
        let _: InlineVec<u32, 2> = InlineVec::from_slice(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "is full")]
    fn overflowing_push_panics() {
        let mut v: InlineVec<u32, 1> = InlineVec::from_slice(&[1]);
        v.push(2);
    }
}
