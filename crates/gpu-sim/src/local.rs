//! Shared local memory (OpenCL `__local`, SYCL local accessors).
//!
//! A kernel declares the local arrays it needs in a [`LocalLayout`]; the
//! executor instantiates one [`LocalMem`] per work-group. Within a group,
//! work-items of one phase run sequentially (see [`crate::executor`]), so
//! local memory needs no interior mutability — races within a group are
//! impossible by construction, and cross-phase visibility is exactly the
//! barrier guarantee of §II.B of the paper.

use std::fmt;
use std::marker::PhantomData;

use crate::item::ItemCtx;
use crate::memory::Scalar;

/// Typed handle to one local array declared in a [`LocalLayout`].
///
/// Handles are `Copy` and are stored inside the kernel struct, mirroring how
/// an OpenCL kernel receives `__local` pointer arguments.
pub struct LocalHandle<T> {
    slot: usize,
    len: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for LocalHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for LocalHandle<T> {}

impl<T> fmt::Debug for LocalHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalHandle")
            .field("slot", &self.slot)
            .field("len", &self.len)
            .finish()
    }
}

impl<T> LocalHandle<T> {
    /// Number of elements in the array this handle refers to.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One declared array: its element type's [`Scalar::TAG`] and its words in
/// the group's storage.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u8,
    start: usize,
    len: usize,
}

/// Declaration of the shared-local-memory arrays a kernel needs per group.
///
/// # Examples
///
/// ```
/// use gpu_sim::kernel::LocalLayout;
///
/// let mut layout = LocalLayout::new();
/// let pat = layout.array::<u8>(46);
/// let idx = layout.array::<i32>(46);
/// assert_eq!(pat.len(), 46);
/// assert_eq!(layout.total_bytes(), 46 + 46 * 4);
/// # let _ = idx;
/// ```
#[derive(Debug, Default)]
pub struct LocalLayout {
    slots: Vec<Slot>,
    words: usize,
    bytes: u64,
}

impl LocalLayout {
    /// An empty layout (kernel uses no local memory).
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a local array of `len` elements of `T`, returning its handle.
    pub fn array<T: Scalar>(&mut self, len: usize) -> LocalHandle<T> {
        let slot = self.slots.len();
        self.slots.push(Slot {
            tag: T::TAG,
            start: self.words,
            len,
        });
        self.words += len;
        self.bytes += len as u64 * T::BYTES;
        LocalHandle {
            slot,
            len,
            _marker: PhantomData,
        }
    }

    /// Total bytes of local memory the layout occupies per work-group.
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of declared arrays.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn instantiate(&self) -> LocalMem {
        LocalMem {
            slots: self.slots.clone(),
            words: vec![0; self.words],
        }
    }
}

/// One work-group's instantiated shared local memory.
///
/// Access is typed through the [`LocalHandle`]s produced by the layout that
/// created this memory; every access is counted against the issuing
/// work-item. Each element is held as its bit pattern in one 64-bit word,
/// and each array remembers its element type, so a handle of another type
/// is caught without dynamic dispatch.
pub struct LocalMem {
    slots: Vec<Slot>,
    words: Vec<u64>,
}

impl fmt::Debug for LocalMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalMem")
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl LocalMem {
    /// The word of element `i` of `h`'s array.
    #[inline(always)]
    fn word<T: Scalar>(&self, h: LocalHandle<T>, i: usize) -> usize {
        match self.slots.get(h.slot) {
            Some(s) if s.tag == T::TAG => {
                assert!(
                    i < s.len,
                    "index out of bounds: the len is {} but the index is {i}",
                    s.len
                );
                s.start + i
            }
            _ => panic!("local handle does not belong to this kernel's layout"),
        }
    }

    /// Load element `i` of the local array `h`, counted against `item`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds or `h` was declared by a different
    /// layout.
    #[inline]
    pub fn load<T: Scalar>(&self, item: &mut ItemCtx, h: LocalHandle<T>, i: usize) -> T {
        item.count_local_load();
        T::from_bits(self.words[self.word(h, i)])
    }

    /// Store `v` to element `i` of the local array `h`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds or `h` was declared by a different
    /// layout.
    #[inline]
    pub fn store<T: Scalar>(&mut self, item: &mut ItemCtx, h: LocalHandle<T>, i: usize, v: T) {
        item.count_local_store();
        let w = self.word(h, i);
        self.words[w] = v.to_bits();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item() -> ItemCtx {
        ItemCtx::new([0; 3], [0; 3], [0; 3], [1, 1, 1], [1, 1, 1])
    }

    #[test]
    fn layout_accounting() {
        let mut layout = LocalLayout::new();
        let a = layout.array::<u8>(10);
        let b = layout.array::<i32>(5);
        assert_eq!(layout.slots(), 2);
        assert_eq!(layout.total_bytes(), 10 + 20);
        assert_eq!(a.len(), 10);
        assert!(!b.is_empty());
    }

    #[test]
    fn typed_roundtrip_with_counting() {
        let mut layout = LocalLayout::new();
        let a = layout.array::<u8>(4);
        let b = layout.array::<i32>(4);
        let mut mem = layout.instantiate();
        let mut it = item();
        mem.store(&mut it, a, 0, 7u8);
        mem.store(&mut it, b, 3, -1i32);
        assert_eq!(mem.load(&mut it, a, 0), 7);
        assert_eq!(mem.load(&mut it, b, 3), -1);
        assert_eq!(mem.load(&mut it, b, 0), 0, "zero-initialized");
        assert_eq!(it.counters().local_stores, 2);
        assert_eq!(it.counters().local_loads, 3);
    }

    #[test]
    fn each_instantiation_is_fresh() {
        let mut layout = LocalLayout::new();
        let a = layout.array::<u32>(1);
        let mut m1 = layout.instantiate();
        let mut it = item();
        m1.store(&mut it, a, 0, 99);
        let m2 = layout.instantiate();
        assert_eq!(m2.load(&mut it, a, 0), 0);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn foreign_handle_panics() {
        let mut l1 = LocalLayout::new();
        let _a = l1.array::<u8>(4);
        let h_i32 = {
            let mut l2 = LocalLayout::new();
            l2.array::<i32>(4)
        };
        let mem = l1.instantiate();
        let mut it = item();
        // Slot 0 exists but holds u8s, not i32s.
        mem.load(&mut it, h_i32, 0);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn same_width_handle_of_another_type_panics() {
        let mut layout = LocalLayout::new();
        let _a = layout.array::<u8>(4);
        let h_i8 = LocalLayout::new().array::<i8>(4);
        let mem = layout.instantiate();
        // Slot 0 holds u8s; an i8 handle must not read them.
        mem.load(&mut item(), h_i8, 0);
    }

    #[test]
    fn bit_patterns_roundtrip_for_signed_and_float_elements() {
        let mut layout = LocalLayout::new();
        let a = layout.array::<i8>(1);
        let b = layout.array::<f32>(1);
        let c = layout.array::<i64>(1);
        let mut mem = layout.instantiate();
        let mut it = item();
        mem.store(&mut it, a, 0, -5i8);
        mem.store(&mut it, b, 0, -1.5f32);
        mem.store(&mut it, c, 0, i64::MIN);
        assert_eq!(mem.load(&mut it, a, 0), -5);
        assert_eq!(mem.load(&mut it, b, 0), -1.5);
        assert_eq!(mem.load(&mut it, c, 0), i64::MIN);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn oob_local_access_panics() {
        let mut layout = LocalLayout::new();
        let a = layout.array::<u8>(2);
        let mem = layout.instantiate();
        mem.load(&mut item(), a, 2);
    }
}
