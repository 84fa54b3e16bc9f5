//! # scs-crypto — deterministic encryption *simulation*
//!
//! The DSSP stores encrypted statements and query results; deterministic
//! encryption is required for correct caching mechanics (footnote 3 of the
//! paper): lookup keys are the encrypted statement (blind exposure) or
//! template id + encrypted parameters (template exposure). In this
//! reproduction only those key texts are sealed, and only the sealed
//! length is read: it sizes the entry ([`Ciphertext::len`]), and an
//! optional [`CryptoMeter`] tallies every seal and open for the leakage
//! audit.
//!
//! **This crate is a simulation.** [`DeterministicCipher`] is a four-round
//! unbalanced Feistel construction whose rounds work on little-endian
//! `u64` words (a masked partial word at the end of each half): it is
//! deterministic and invertible, adds an 8-byte length header, and keys
//! each application apart ([`Encryptor::for_app`]), so the cache mechanics
//! and payload-size effects are faithful — but it is **not
//! cryptographically secure** and must never be used to protect real
//! data. The paper likewise excludes encryption compute cost from its
//! scalability measurements (§5.4 footnote 6), so strength is irrelevant to
//! the reproduction.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod cipher;
pub mod envelope;

pub use cipher::{DeterministicCipher, Key};
pub use envelope::{Ciphertext, CryptoMeter, Encryptor};
