//! A list that holds its first element inline.
//!
//! The simulator keeps many small lists whose common length is one:
//! the logical owners of a physical page (more than one only when
//! dedup shares the page) and the garbage copies of a dead value in a
//! pool entry (more than one only when the same content died twice).
//! A `Vec` for each of them costs a heap allocation per page and a
//! pointer chase per access. [`InlineList`] stores a single element in
//! place and moves to a `Vec` only when a second one is added.

use core::fmt;
use core::ops::Deref;

/// A list that stores up to one element inline and spills to a `Vec`
/// on the second [`push`](InlineList::push).
///
/// Every operation keeps `Vec`'s order semantics exactly — `push`
/// appends, [`pop`](InlineList::pop) takes the last element,
/// [`swap_remove_item`](InlineList::swap_remove_item) is
/// `Vec::swap_remove` at the first matching position, and
/// [`retain`](InlineList::retain) keeps survivors in order — so code
/// that moved from `Vec` sees the same elements in the same order.
/// Reads go through `Deref<Target = [T]>` (`len`, `contains`, `iter`,
/// indexing). Equality compares the elements, not the representation.
///
/// # Examples
///
/// ```
/// use zssd_types::InlineList;
///
/// let mut list = InlineList::one(7u64);
/// assert_eq!(&*list, &[7]);
/// list.push(8);
/// list.push(9);
/// assert!(list.swap_remove_item(&7));
/// assert_eq!(&*list, &[9, 8]);
/// assert_eq!(list.pop(), Some(8));
/// assert!(list.contains(&9));
/// ```
#[derive(Clone)]
pub struct InlineList<T>(Repr<T>);

#[derive(Clone)]
enum Repr<T> {
    Empty,
    One(T),
    /// Spilled after a second push; stays spilled while non-empty.
    Many(Vec<T>),
}

impl<T> InlineList<T> {
    /// An empty list.
    pub const fn new() -> Self {
        InlineList(Repr::Empty)
    }

    /// A list holding just `item`, with no heap allocation.
    pub const fn one(item: T) -> Self {
        InlineList(Repr::One(item))
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(item) => core::slice::from_ref(item),
            Repr::Many(items) => items,
        }
    }

    /// Appends `item`; the second element moves the list to the heap.
    pub fn push(&mut self, item: T) {
        self.0 = match core::mem::replace(&mut self.0, Repr::Empty) {
            Repr::Empty => Repr::One(item),
            Repr::One(first) => Repr::Many(vec![first, item]),
            Repr::Many(mut items) => {
                items.push(item);
                Repr::Many(items)
            }
        };
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self) -> Option<T> {
        match core::mem::replace(&mut self.0, Repr::Empty) {
            Repr::Empty => None,
            Repr::One(item) => Some(item),
            Repr::Many(mut items) => {
                let item = items.pop();
                if !items.is_empty() {
                    self.0 = Repr::Many(items);
                }
                item
            }
        }
    }

    /// Keeps only the elements for which `keep` returns true, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match &mut self.0 {
            Repr::Empty => {}
            Repr::One(item) => {
                if !keep(item) {
                    self.0 = Repr::Empty;
                }
            }
            Repr::Many(items) => {
                items.retain(keep);
                if items.is_empty() {
                    self.0 = Repr::Empty;
                }
            }
        }
    }

    /// Removes every element (and frees a spilled buffer).
    pub fn clear(&mut self) {
        self.0 = Repr::Empty;
    }
}

impl<T: PartialEq> InlineList<T> {
    /// Removes the first element equal to `item` as `Vec::swap_remove`
    /// would (the last element takes its place), returning whether one
    /// was found.
    pub fn swap_remove_item(&mut self, item: &T) -> bool {
        match &mut self.0 {
            Repr::Empty => false,
            Repr::One(only) => {
                let found = only == item;
                if found {
                    self.0 = Repr::Empty;
                }
                found
            }
            Repr::Many(items) => {
                let Some(pos) = items.iter().position(|x| x == item) else {
                    return false;
                };
                items.swap_remove(pos);
                if items.is_empty() {
                    self.0 = Repr::Empty;
                }
                true
            }
        }
    }
}

impl<T> Default for InlineList<T> {
    fn default() -> Self {
        InlineList::new()
    }
}

impl<T> Deref for InlineList<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<'a, T> IntoIterator for &'a InlineList<T> {
    type Item = &'a T;
    type IntoIter = core::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T> FromIterator<T> for InlineList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = InlineList::new();
        for item in iter {
            list.push(item);
        }
        list
    }
}

impl<T: PartialEq> PartialEq for InlineList<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq> Eq for InlineList<T> {}

impl<T: fmt::Debug> fmt::Debug for InlineList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Push(u8),
        Pop,
        SwapRemove(u8),
        /// Drop every element divisible by the given modulus.
        Retain(u8),
        Clear,
    }

    fn op() -> impl Strategy<Value = Op> {
        // Small values so swap-removes and retains hit often; pushes
        // weighted up so lists reach lengths past the spill point.
        prop_oneof![
            (0u8..6).prop_map(Op::Push),
            (0u8..6).prop_map(Op::Push),
            (0u8..6).prop_map(Op::Push),
            Just(Op::Pop),
            (0u8..6).prop_map(Op::SwapRemove),
            (2u8..5).prop_map(Op::Retain),
            Just(Op::Clear),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_a_vec_model(ops in prop::collection::vec(op(), 0..60)) {
            let mut list = InlineList::new();
            let mut model: Vec<u8> = Vec::new();
            for op in ops {
                match op {
                    Op::Push(x) => {
                        list.push(x);
                        model.push(x);
                    }
                    Op::Pop => prop_assert_eq!(list.pop(), model.pop()),
                    Op::SwapRemove(x) => {
                        let pos = model.iter().position(|&y| y == x);
                        if let Some(pos) = pos {
                            model.swap_remove(pos);
                        }
                        prop_assert_eq!(list.swap_remove_item(&x), pos.is_some());
                    }
                    Op::Retain(m) => {
                        list.retain(|&y| y % m != 0);
                        model.retain(|&y| y % m != 0);
                    }
                    Op::Clear => {
                        list.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(list.as_slice(), model.as_slice());
                prop_assert_eq!(list.len(), model.len());
                prop_assert_eq!(list.is_empty(), model.is_empty());
                for x in 0u8..6 {
                    prop_assert_eq!(list.contains(&x), model.contains(&x));
                }
                let iterated: Vec<u8> = list.iter().copied().collect();
                prop_assert_eq!(iterated, model.clone());
                prop_assert_eq!(&list, &model.iter().copied().collect::<InlineList<u8>>());
            }
        }
    }

    #[test]
    fn single_elements_stay_inline() {
        let mut list = InlineList::one(1u64);
        assert!(matches!(list.0, Repr::One(1)));
        list.push(2);
        assert!(matches!(list.0, Repr::Many(_)));
        // Emptied lists drop their buffer.
        list.retain(|_| false);
        assert!(matches!(list.0, Repr::Empty));
        list.push(3);
        assert!(matches!(list.0, Repr::One(3)));
    }

    #[test]
    fn equality_ignores_representation() {
        let mut spilled = InlineList::one(1u64);
        spilled.push(2);
        assert_eq!(spilled.pop(), Some(2));
        assert_eq!(spilled, InlineList::one(1));
        assert_eq!(format!("{spilled:?}"), "[1]");
        assert_eq!(InlineList::<u64>::default(), InlineList::new());
    }

    #[test]
    fn a_single_element_costs_no_more_than_a_vec() {
        assert!(core::mem::size_of::<InlineList<u64>>() <= core::mem::size_of::<Vec<u64>>());
    }
}
