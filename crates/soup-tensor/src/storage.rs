//! Allocation-tracked buffer storage.
//!
//! [`Buf`] owns the flat `Vec<f32>` behind a tensor and keeps the global
//! [`crate::memory::DEVICE_MEMORY`] meter in sync across its whole
//! lifecycle: construction registers the bytes, `Drop` releases them, and
//! `Clone` (used by copy-on-write updates) registers the copy.
//!
//! Buffers are recycled through the workspace pool ([`crate::pool`]):
//! `zeros`, `full` and `Clone` draw from it, and `Drop` offers the vector
//! back to it instead of deallocating, so shape-periodic workloads
//! (training epochs) stop hitting the allocator once warm. The pool keeps a
//! returned vector only while its bucket holds fewer idle buffers than the
//! pool minted of that size, so a [`Buf::from_vec`] of a vector the pool
//! never handed out is usually freed on drop. Live bytes stay in
//! `DEVICE_MEMORY.current`; idle pooled bytes are accounted separately.

use crate::memory::DEVICE_MEMORY;

/// A tracked, heap-allocated `f32` buffer.
#[derive(Debug)]
pub struct Buf {
    data: Vec<f32>,
}

impl Buf {
    /// Take ownership of an existing vector, registering its capacity.
    pub fn from_vec(data: Vec<f32>) -> Self {
        DEVICE_MEMORY.alloc(Self::bytes_of(&data));
        Self { data }
    }

    /// Allocate a zero-filled buffer of `len` elements (pool-recycled).
    pub fn zeros(len: usize) -> Self {
        Self::from_vec(crate::pool::take_zeroed(len))
    }

    /// Allocate a buffer filled with `value` (pool-recycled).
    pub fn full(len: usize, value: f32) -> Self {
        let mut data = crate::pool::take_scratch(len);
        data.fill(value);
        Self::from_vec(data)
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    fn bytes_of(data: &Vec<f32>) -> usize {
        data.capacity() * std::mem::size_of::<f32>()
    }
}

impl Clone for Buf {
    fn clone(&self) -> Self {
        Self::from_vec(crate::pool::take_copy(&self.data))
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        DEVICE_MEMORY.free(Self::bytes_of(&self.data));
        crate::pool::put(std::mem::take(&mut self.data));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_alloc_and_free() {
        let before = DEVICE_MEMORY.current();
        let buf = Buf::zeros(1000);
        assert!(DEVICE_MEMORY.current() >= before + 4000);
        drop(buf);
        assert_eq!(
            DEVICE_MEMORY.current().min(before),
            before.min(DEVICE_MEMORY.current())
        );
    }

    #[test]
    fn clone_registers_copy() {
        let buf = Buf::full(256, 1.5);
        let before = DEVICE_MEMORY.current();
        let copy = buf.clone();
        assert!(DEVICE_MEMORY.current() >= before + 1024);
        assert_eq!(copy.as_slice(), buf.as_slice());
        drop(copy);
    }

    #[test]
    fn contents() {
        let buf = Buf::full(4, 2.0);
        assert_eq!(buf.as_slice(), &[2.0; 4]);
        assert_eq!(buf.len(), 4);
        assert!(!buf.is_empty());
    }
}
