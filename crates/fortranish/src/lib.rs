//! # force-fortran — the mini-Fortran substrate of The Force
//!
//! A lexer, parser, bytecode compiler and multi-process VM ([`Engine`])
//! for the Fortran subset emitted by the Force preprocessor
//! ([`force_prep`]), with COMMON storage shared through a simulated
//! machine personality ([`force_machdep::Machine`]); plus the reference
//! tree-walking interpreter the VM is tested against ([`oracle`]).  This crate substitutes for the
//! "manufacturer provided Fortran compiler and linker" of the paper's
//! three-step pipeline (§4.3).
//!
//! ```
//! use force_fortran::Engine;
//! use force_machdep::{Machine, MachineId};
//! use force_prep::preprocess;
//!
//! let source = "\
//!       Force FMAIN of NP ident ME
//!       Shared INTEGER TOTAL
//!       Private INTEGER K
//!       End declarations
//!       Selfsched DO 100 K = 1, 10
//!       Critical LCK
//!       TOTAL = TOTAL + K
//!       End critical
//! 100   End selfsched DO
//!       Join
//! ";
//! let expanded = preprocess(source, MachineId::EncoreMultimax).unwrap();
//! let engine = Engine::from_expanded(&expanded, Machine::new(MachineId::EncoreMultimax)).unwrap();
//! let out = engine.run(4).unwrap();
//! assert_eq!(out.shared_scalar("TOTAL").unwrap().as_int(0).unwrap(), 55);
//! ```

pub mod ast;
pub mod bytecode;
pub mod engine;
pub mod error;
pub mod intrinsics;
pub mod lexer;
pub mod oracle;
pub mod parser;
pub mod program;
pub mod token;
pub mod value;

pub use engine::{Engine, RunOutput};
pub use error::{FortError, FortErrorKind};
pub use program::{Program, Unit};
pub use value::Value;
