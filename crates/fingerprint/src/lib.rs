//! # fingerprint
//!
//! Coarse-grained browser fingerprints: probe definitions, candidate
//! generation, feature vectors, and the compact wire format that keeps a
//! submission under the paper's 1 KB budget (§3).
//!
//! A *coarse-grained fingerprint* is a short vector of small integers:
//! own-property counts of DOM prototypes ("deviation-based" features) and
//! presence bits for specific properties ("time-based" features). By
//! design it carries too little entropy to track a user (§7.4) but enough
//! to expose a browser lying about its user-agent.
//!
//! The flow mirrors the paper:
//!
//! 1. [`candidates::mdn_universe`] — every probe-able MDN prototype
//!    (1006 names, §6.1);
//! 2. [`candidates::rank_by_deviation`] — keep the 200 with the highest
//!    standard deviation across the legitimate-browser catalog;
//! 3. [`FeatureSet::candidates_513`] — those 200 plus the 313
//!    BrowserPrint-style presence probes, the set actually deployed for
//!    real-world collection (§6.2);
//! 4. [`FeatureSet::table8`] — the final 28 features after pre-processing
//!    (§6.3, Table 8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidates;
pub mod probe;
pub mod script;
pub mod vector;
pub mod wire;

pub use probe::{FeatureKind, Probe};
pub use script::{collection_script, ScriptOptions};
pub use vector::{FeatureSet, Fingerprint};
pub use wire::{
    decode_submission, decode_submission_view, encode_stats_request, encode_submission, fnv1a64,
    hash_words, is_stats_request, submission_cache_key, Submission, SubmissionView, WireError,
    MAX_SUBMISSION_BYTES,
};
