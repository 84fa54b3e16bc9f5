//! Compile-time pins of the `scs-crypto` names `benchmark/` binds — what
//! `src/probes.rs` calls to time a seal and an open and to size the
//! sealed texts. `benchmark/` is a workspace of its own that `cargo test`
//! here never builds, and no PR may change it: a signature that drifts
//! from these pins fails this file instead of the benchmark's build.
//! Coercions only — behaviour is pinned elsewhere. The root package's
//! `tests/benchmark_api.rs` includes this file, so tier-1 compiles it.

use scs_crypto::{Ciphertext, Encryptor};

#[test]
fn encryptor_names_keep_the_signatures_the_benchmark_binds() {
    let _: fn(&str) -> Encryptor = Encryptor::for_app;
    let _: fn(&Encryptor, &str) -> Ciphertext = Encryptor::encrypt_str;
    let _: fn(&Encryptor, &Ciphertext) -> Option<String> = Encryptor::decrypt_str;
    let _: fn(&Encryptor) -> Encryptor = Encryptor::clone;
    let _: fn(&Ciphertext) -> usize = Ciphertext::len;
}
