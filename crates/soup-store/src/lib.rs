//! # soup-store
//!
//! The durable artifact layer under both pipeline phases: every checkpoint,
//! manifest, and Phase-2 optimizer snapshot the system persists goes
//! through this crate, and every read back validates integrity before a
//! single byte is trusted.
//!
//! | Concern | Module |
//! |---|---|
//! | Atomic durable replace (tmp → fsync → rename → fsync dir) | [`atomic`] |
//! | `soup-ckpt/2` checksummed envelope | [`envelope`] |
//! | CRC32 (IEEE) | [`crc`] |
//! | Test-armed crash and damage points | [`fault`] |
//! | Verified envelope store with self-healing writes | [`store`] |
//! | `u32`-LE length-prefixed socket frames (serve) | [`frame`] |
//!
//! Damage of any kind surfaces as [`soup_error::SoupError::Corrupt`] —
//! never a panic, never a silently accepted partial read.

pub mod atomic;
pub mod crc;
pub mod envelope;
pub mod fault;
pub mod frame;
pub mod store;

pub use atomic::{write_durable, write_durable_streamed};
pub use envelope::{open as open_envelope, seal as seal_envelope, HEADER_LEN, MAGIC};
pub use store::{read_payload, Store};
