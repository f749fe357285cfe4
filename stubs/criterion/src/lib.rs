//! Empty placeholder for `criterion` 0.5.
//!
//! No crate in the repository depends on `criterion`: performance is
//! measured by the `perfbench` benchmark. The crate stays only so that
//! the `.cargo/config.toml` patch it backs — recorded as an unused patch
//! in `perfbench/Cargo.lock` — keeps resolving offline.
