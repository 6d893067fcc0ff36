//! Offline stub of `serde`: marker traits only. Derived impls carry no
//! codec logic — generic JSON (de)serialization through `serde_json`
//! returns `Err` at runtime. The workspace's durable format is the
//! hand-written binary codec over `Vec<u8>`; JSON is inspection-only, and
//! `serde_json::Value` overrides the hidden hook below so rendering a
//! `Value` still works.

pub trait Serialize {
    /// Hidden hook: types that can actually render themselves as JSON
    /// (only `serde_json::Value` in this stub) override these.
    #[doc(hidden)]
    fn __stub_to_json(&self) -> Option<String> {
        None
    }

    #[doc(hidden)]
    fn __stub_to_json_pretty(&self) -> Option<String> {
        None
    }
}

pub trait Deserialize<'de>: Sized {
    /// Hidden hook: types that can actually parse themselves from JSON
    /// (only `serde_json::Value` in this stub) override this. `None`
    /// means "no codec"; `Some(Err(..))` is a real parse failure.
    #[doc(hidden)]
    fn __stub_from_json(_s: &str) -> Option<Result<Self, String>> {
        None
    }
}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
