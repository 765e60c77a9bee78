//! # force-prep — the Force preprocessor
//!
//! The two-level macro implementation of The Force (§4.2–4.3 of Jordan,
//! Benten, Alaghband & Jakob, ICPP 1989): a sed-like phase-1 translator
//! ([`sedpass`]), a from-scratch m4-subset macro processor ([`m4`]), the
//! machine-independent statement-macro layer ([`macros`]), six
//! machine-dependent macro sets ([`machdep_macros`]), and the pipeline
//! that chains them and generates the machine-dependent driver
//! ([`pipeline`]) — uncached as [`preprocess`], or memoized by an
//! [`ExpansionCache`], an owned, byte-bounded LRU.
//!
//! ```
//! use force_prep::pipeline::preprocess;
//! use force_machdep::MachineId;
//!
//! let source = "\
//!       Force MAIN of NP ident ME
//!       Shared INTEGER TOTAL
//!       End declarations
//!       Barrier
//!       TOTAL = 0
//!       End barrier
//!       Join
//! ";
//! let program = preprocess(source, MachineId::EncoreMultimax).unwrap();
//! assert!(program.code.contains("CALL ZZTSLCK(BARWIN)"));
//! // The same source ports to the HEP by re-running the pipeline:
//! let hep = preprocess(source, MachineId::Hep).unwrap();
//! assert!(hep.code.contains("CALL ZZFELCK(BARWIN)"));
//! ```

pub mod m4;
pub mod machdep_macros;
pub mod macros;
pub mod pipeline;
pub mod sedpass;
pub mod weigh;

pub use pipeline::{
    expansion_cache, expansion_cache_len, expansion_cache_stats, pass_counts, preprocess,
    preprocess_cached, CacheStats, CompiledPayload, DeclInfo, ExpandedProgram, ExpansionCache,
    PassCounts, PrepError, VarClass,
};
